"""Full-order-model time discretization: residuals and Newton step solves.

For a linear multistep scheme the per-step unknown w satisfies

    r^n(w) = alpha_0 w - dt beta_0 f(w, t^n)
             + sum_{j>=1} alpha_j x^{n-j} - dt sum_{j>=1} beta_j f(x^{n-j}, t^{n-j}) = 0

and for a Runge-Kutta scheme the stage unknowns w_i (velocity values) satisfy

    r_i^n(w_1..w_s) = w_i - f(x^{n-1} + dt sum_j a_ij w_j, t^{n-1} + c_i dt) = 0

with the explicit state update x^n = x^{n-1} + dt sum_i b_i w_i.  An
explicit or DIRK stage i depends on the earlier stages only through the
known part x^{n-1} + dt sum_{j<i} a_ij w_j of its point (``RkStageContext``),
so its residual is w - f(known + dt a_ii w, t_i); a fully implicit tableau
couples all s stages (``rk_stage_points``, ``rk_coupled_residual``).  LSPG
minimizes these same residuals at stage values Phi y.

Model Jacobians may be dense arrays or ``scipy.sparse`` matrices; every
Newton matrix is c0 I - c1 J (``shifted``) and keeps J's type, a sparse
one shifted on J's stored entries.  A ``NewtonMatrix`` factors it or
multiplies it with a basis, and keeps the result while (c0, c1, J) repeat
bitwise, so a linear model factors once per step size.  A dense matrix
goes straight to LAPACK's dgetrf/dgetrs.  A sparse J in canonical CSR form
that stores its diagonal (every built-in sparse model's) keeps its
pattern's structure while the pattern repeats: each new matrix refills
the data of one kept CSR shell and is factored by LAPACK's band LU in a
reverse Cuthill-McKee ordering found once, with no scipy.sparse object
built.  ``scipy.sparse`` is imported only when a sparse Jacobian shows up.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrf, dgetrs

from .core import (JacobianKey, Model, SolverOptions, Trajectory, band_order,
                   write_csv)
from .schemes import ButcherTableau, LmmScheme, classify


class StepSolveError(RuntimeError):
    """A step that could not be solved; carries the residual norm when
    Newton did not converge, and the step in time_index."""

    def __init__(self, msg, residual_norm=None, time_index=None):
        super().__init__(msg)
        self.residual_norm = residual_norm
        self.time_index = time_index


@dataclass(frozen=True)
class LmmStepContext:
    """History and coefficients for one linear-multistep step.

    history[j-1] holds x^{n-j} (most recent first); its length must equal
    min(k, n), consistent with the scheme's startup coefficients.
    """

    history: tuple
    n: int
    dt: float
    scheme: LmmScheme
    _velocities: list = field(default_factory=list, init=False, repr=False,
                              compare=False)

    def history_velocity(self, model, j):
        """f(x^{n-j}, t^{n-j}) by model, evaluated once per step: every
        residual of the step takes the same history velocities."""
        kept = self._velocities
        if not kept or kept[0] is not model:
            kept[:] = model, {}
        if j not in kept[1]:
            kept[1][j] = model.velocity(self.history[j - 1],
                                        (self.n - j) * self.dt)
        return kept[1][j]

    def __post_init__(self):
        alpha, _ = self.scheme.coeffs(self.n)
        if len(self.history) != len(alpha) - 1:
            raise ValueError(
                f"history length {len(self.history)} inconsistent with "
                f"coefficients at n={self.n} (expected {len(alpha) - 1})")


class RkStageContext(NamedTuple):
    """One Runge-Kutta stage i: the known part x^{n-1} + dt sum_{j!=i} a_ij
    w_j of its point, its time t^{n-1} + c_i dt and c1 = dt a_ii."""

    known: np.ndarray
    t: float
    c1: float


def rk_stage_context(base_state, t_base, tableau: ButcherTableau, dt,
                     prev_stages, i=None) -> RkStageContext:
    """The context of stage i (default len(prev_stages)), its known part
    summed over the given stage values w_j, j != i, in order: the one
    stage-point rule, every stage point being known + c1 w_i."""
    i = len(prev_stages) if i is None else i
    known = base_state
    for j, wj in enumerate(prev_stages):
        if j != i and tableau.a[i, j] != 0.0:
            known = known + dt * tableau.a[i, j] * wj
    return RkStageContext(known=known, t=t_base + tableau.c[i] * dt,
                          c1=dt * tableau.a[i, i])


def _identity_entries(csr, rows):
    """The positions in csr.data of the identity entries of ``shifted``,
    or None unless csr is in canonical form and stores every one."""
    if not csr.has_canonical_format:
        return None
    n = csr.shape[0]
    at = np.repeat(np.arange(n) if rows is None else np.asarray(rows),
                   np.diff(csr.indptr))
    diag = np.flatnonzero(csr.indices == at)
    return diag if len(diag) == n else None


def shifted(c0: float, c1: float, jac, rows=None):
    """c0 I - c1 J with an identity of J's own type: an ndarray stays
    dense, a scipy.sparse matrix stays sparse (CSR).

    rows, if given, says that J holds some rows of a Jacobian on the
    columns of a sample mesh (``core.SampleMesh``): row i of I is then the
    unit vector at column rows[i], the mesh position of J's row i.  This is
    the reference arithmetic that ``NewtonMatrix``'s kept shell matches."""
    n = jac.shape[0]
    cols = np.arange(n) if rows is None else np.asarray(rows)
    if isinstance(jac, np.ndarray):
        eye = np.zeros(jac.shape)
        eye[np.arange(n), cols] = 1.0
        return c0 * eye - c1 * jac
    from scipy import sparse
    eye = sparse.csr_array((np.ones(n), cols, np.arange(n + 1)),
                           shape=jac.shape)
    return c0 * eye - c1 * jac.tocsr()


def _exactly_singular(info, factor):
    """A zero pivot of a LAPACK LU (info > 0) is a StepSolveError."""
    if info > 0:
        raise StepSolveError(f"Newton matrix is exactly singular (zero pivot "
                             f"{info} of its {factor})")


class _Pattern:
    """What a NewtonMatrix keeps of a sparse J's pattern (indptr, indices)
    while it repeats: the positions of J's identity entries (None when J
    cannot be shifted on its stored entries, ``_identity_entries``), a private
    CSR shell of the pattern whose data each c0 I - c1 J refills, and the
    band LU's ordering and scatter, formed at the first factorization.
    indptr and indices are keyed as ``core.JacobianKey`` keys an array."""

    def __init__(self, csr, rows):
        self._keys = JacobianKey(csr.indptr), JacobianKey(csr.indices)
        self.diag = _identity_entries(csr, rows)
        self.shell = self.band = None
        if self.diag is not None:
            from scipy import sparse
            self.shell = sparse.csr_array(
                (csr.data, csr.indices, csr.indptr), shape=csr.shape,
                copy=True)

    def matches(self, csr):
        return self._keys[0].matches(csr.indptr) \
            and self._keys[1].matches(csr.indices)


def _band(mat):
    """(perm, positions, kl, ku): the reverse Cuthill-McKee ordering of a
    CSR mat's pattern and the positions of its stored entries in the band
    storage of dgbtrf."""
    perm, rows, cols = band_order(mat)
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)
    kl = int(np.max(rows - cols, initial=0))
    ku = int(np.max(cols - rows, initial=0))
    # entry (i, j) sits at row kl + ku + i - j, column j of the
    # 2 kl + ku + 1 rows dgbtrf works in, stored column by column
    return perm, cols * (2 * kl + ku + 1) + kl + ku + rows - cols, kl, ku


def _band_lu(band, mat):
    """The solve of a CSR mat by dgbtrf/dgbtrs in the given band
    ordering of its pattern."""
    perm, positions, kl, ku = band
    ab = np.zeros((mat.shape[0], 2 * kl + ku + 1))
    ab.ravel()[positions] = mat.data
    lu, piv, info = dgbtrf(ab.T, kl, ku, overwrite_ab=1)
    _exactly_singular(info, "band LU")

    def solve(rhs):
        x = np.empty_like(rhs, dtype=float)
        x[perm] = dgbtrs(lu, kl, ku, rhs[perm], piv)[0]
        return x
    return solve


class NewtonMatrix:
    """c0 I - c1 J for the last (c0, c1, J) given, with its LU factor and
    its product with a basis formed on first use and kept while c0, c1 and
    the entries of J repeat bitwise.

    J is keyed by ``core.JacobianKey``s (a sparse J's pattern and data
    apart): by identity when an array is read-only and owns its memory,
    else by a private copy of its contents, since a model may refill one
    buffer in place.  The product is
    kept for the basis object it was formed with; callers must not mutate
    either.  rows, if given, makes every J a row block on a sample mesh,
    shifted as ``shifted`` says.

    A sparse J's pattern is kept (``_Pattern``) while it repeats, so a new
    c0 I - c1 J on it is one shift of J's data into the kept CSR shell; a
    J that cannot be shifted on its stored entries takes ``shifted``.  A
    sparse matrix is factored by LAPACK's band LU (dgbtrf) in the reverse
    Cuthill-McKee ordering of its pattern, at O(N b^2) for a reordered
    bandwidth b: b = 1 for a tridiagonal matrix, 2 with a periodic wrap.
    A dense one is factored by dgetrf and solved by dgetrs, the calls of
    scipy's lu_factor/lu_solve without their finiteness checks (a residual
    that is not finite stops ``newton_solve``).  An exactly singular
    matrix raises StepSolveError.  One object serves one integration or
    bound call: it is not shared between threads.
    """

    def __init__(self, rows=None):
        self._rows = rows
        self._pattern = None
        self._key = None
        self._solve = None
        self._basis = self._product = None

    def _use(self, c0, c1, jac):
        """Keep (c0, c1, J), dropping the factor and product unless they
        repeat; returns J, in CSR form if sparse."""
        if isinstance(jac, np.ndarray):
            pattern, values = None, jac
        else:
            jac = jac.tocsr()
            if self._pattern is None or not self._pattern.matches(jac):
                self._pattern = _Pattern(jac, self._rows)
            pattern, values = self._pattern, jac.data
        key = self._key
        if key is not None and key[:2] == (c0, c1) and key[2] is pattern \
                and key[3].matches(values):
            return jac
        self._key = (c0, c1, pattern, JacobianKey(values))
        self._solve = None
        self._basis = self._product = None
        return jac

    def _matrix(self, c0, c1, jac):
        """c0 I - c1 J: the kept shell refilled, else ``shifted``."""
        pattern = self._key[2]
        if pattern is None or pattern.diag is None:
            return shifted(c0, c1, jac, self._rows)
        pattern.shell.data = jac.data * -c1  # plus c0 at the identity entries
        pattern.shell.data[pattern.diag] += c0
        return pattern.shell

    def solve(self, c0, c1, jac, rhs):
        """(c0 I - c1 J)^{-1} rhs by LU: dgetrf/dgetrs for an ndarray, band
        LU for a scipy.sparse matrix."""
        jac = self._use(c0, c1, jac)
        if self._solve is None:
            mat = self._matrix(c0, c1, jac)
            if isinstance(mat, np.ndarray):
                lu, piv, info = dgetrf(mat, overwrite_a=1)
                _exactly_singular(info, "LU")
                self._solve = lambda b: dgetrs(lu, piv, b)[0]
            else:
                pattern = self._key[2]
                if mat is not pattern.shell:  # shifted: a pattern of its own
                    band = _band(mat)
                else:
                    band = pattern.band = pattern.band or _band(mat)
                self._solve = _band_lu(band, mat)
        return self._solve(rhs)

    def times(self, c0, c1, jac, basis):
        """(c0 I - c1 J) basis."""
        jac = self._use(c0, c1, jac)
        if self._basis is not basis:
            self._basis = basis
            self._product = self._matrix(c0, c1, jac) @ basis
        return self._product


def _block(blocks):
    """Assemble a square grid of equal-size blocks of one type."""
    if isinstance(blocks[0][0], np.ndarray):
        return np.block(blocks)
    from scipy import sparse
    return sparse.block_array(blocks, format="csr")


def lmm_residual(model: Model, ctx: LmmStepContext, w: np.ndarray,
                 rows=None) -> np.ndarray:
    """r^n(w).  rows, if given, are the positions in w and the history
    states of the residual rows that model.velocity returns: the rows of
    a ``core.SampleMesh`` on its mesh."""
    alpha, beta = ctx.scheme.coeffs(ctx.n)
    tn = ctx.n * ctx.dt
    pick = (lambda v: v) if rows is None else (lambda v: v[rows])
    r = alpha[0] * pick(w)
    if beta[0] != 0.0:
        r = r - ctx.dt * beta[0] * model.velocity(w, tn)
    for j in range(1, len(alpha)):
        r = r + alpha[j] * pick(ctx.history[j - 1])
        if beta[j] != 0.0:
            r = r - ctx.dt * beta[j] * ctx.history_velocity(model, j)
    return r


def lmm_jacobian_terms(model: Model, ctx: LmmStepContext, w: np.ndarray):
    """(c0, c1, J) of the residual Jacobian c0 I - c1 J: alpha_0,
    dt beta_0 and df/dx(w)."""
    alpha, beta = ctx.scheme.coeffs(ctx.n)
    return alpha[0], ctx.dt * beta[0], model.jacobian(w, ctx.n * ctx.dt)


def newton_solve(residual, jacobian_terms, w, opts, newton):
    """Newton from w on residual(w) = 0, whose Jacobian c0 I - c1 J is
    given by jacobian_terms(w) = (c0, c1, J) and solved by newton, a
    NewtonMatrix; converged once |r| <= max(abs_tol, rel_tol |r(w)|).  A
    residual that is not finite stops it: an infinite first one would set
    the tolerance to inf and accept w.  The one Newton loop of every
    full-space solve, the bounds' included."""
    def norm(r):
        rnorm = float(np.linalg.norm(r))
        if not np.isfinite(rnorm):
            raise StepSolveError(f"Newton residual is not finite "
                                 f"(|r| = {rnorm})", residual_norm=rnorm)
        return rnorm

    r = residual(w)
    rnorm = norm(r)
    tol = max(opts.newton_abs_tol, opts.newton_rel_tol * rnorm)
    for _ in range(opts.max_iters):
        if rnorm <= tol:
            return w
        w = w - newton.solve(*jacobian_terms(w), r)
        r = residual(w)
        rnorm = norm(r)
    if rnorm <= tol:
        return w
    raise StepSolveError(
        f"Newton failed to converge in {opts.max_iters} iterations "
        f"(|r| = {rnorm:.3e})", residual_norm=rnorm)


def solve_lmm_step(model: Model, ctx: LmmStepContext,
                   opts: SolverOptions, newton=None) -> np.ndarray:
    """One multistep step by Newton; newton, a NewtonMatrix, may carry a
    factor from earlier steps."""
    alpha, beta = ctx.scheme.coeffs(ctx.n)
    if beta[0] == 0.0:
        # r(w) = alpha_0 w + r(0): one direct update, no Newton; 0.0 - r
        # keeps an exactly-zero component +0.0
        return (0.0 - lmm_residual(model, ctx, np.zeros(model.dim))) \
            / alpha[0]
    # warm start from the previous state
    return newton_solve(lambda w: lmm_residual(model, ctx, w),
                        lambda w: lmm_jacobian_terms(model, ctx, w),
                        ctx.history[0].copy(), opts,
                        NewtonMatrix() if newton is None else newton)


def rk_residual(model: Model, ctx: RkStageContext, w: np.ndarray,
                rows=None):
    """Stage residual w - f(known + c1 w, t_i); rows as in
    ``lmm_residual``."""
    return (w if rows is None else w[rows]) \
        - model.velocity(ctx.known + ctx.c1 * w, ctx.t)


def rk_jacobian_terms(model: Model, ctx: RkStageContext, w: np.ndarray):
    """(c0, c1, J) of the stage residual's Jacobian c0 I - c1 J: 1,
    dt a_ii and df/dx at the stage point."""
    return 1.0, ctx.c1, model.jacobian(ctx.known + ctx.c1 * w, ctx.t)


def rk_stage_points(base_state, t_base, tableau: ButcherTableau, dt, ws):
    """Every stage's point known_i + dt a_ii w_i and time t^{n-1} + c_i dt,
    as (x_i, t_i) pairs, given all stage values ws."""
    ctxs = [rk_stage_context(base_state, t_base, tableau, dt, ws, i)
            for i in range(tableau.s)]
    return [(ctx.known + ctx.c1 * w, ctx.t) for ctx, w in zip(ctxs, ws)]


def rk_coupled_residual(model: Model, points, ws) -> np.ndarray:
    """The stacked stage residuals w_i - f(x_i, t_i) at the stage points."""
    return np.concatenate([w - model.velocity(x, t)
                           for w, (x, t) in zip(ws, points)])


def _solve_rk_coupled(model, base_state, t_base, tableau, dt, opts, newton):
    """Coupled Newton on the stacked s*N system for fully implicit tableaus."""
    s, ndof = tableau.s, model.dim

    def points(wvec):
        return rk_stage_points(base_state, t_base, tableau, dt,
                               wvec.reshape(s, ndof))

    def jacobian_terms(wvec):
        # block (i, j) of the stacked Jacobian: delta_ij I - dt a_ij J_i
        jacs = (model.jacobian(x, t) for x, t in points(wvec))
        return 1.0, 1.0, _block([[dt * a_ij * jf for a_ij in a_i]
                                 for a_i, jf in zip(tableau.a, jacs)])

    w = newton_solve(lambda wvec: rk_coupled_residual(
        model, points(wvec), wvec.reshape(s, ndof)), jacobian_terms,
        np.tile(model.velocity(base_state, t_base), s), opts, newton)
    return list(w.reshape(s, ndof))


def solve_rk_step(model: Model, base_state: np.ndarray,
                  tableau: ButcherTableau, dt: float, opts: SolverOptions,
                  t_base: float = 0.0, newton=None):
    """The stage values of one RK step, a list; ``march`` forms the step's
    update from them.  newton, a NewtonMatrix, may carry a factor from
    earlier stages and steps."""
    newton = NewtonMatrix() if newton is None else newton
    kind = classify(tableau)
    if kind == "fully_implicit":
        return _solve_rk_coupled(model, base_state, t_base, tableau, dt, opts,
                                 newton)
    # the standard warm start of every implicit stage: f(x^{n-1})
    warm = None if kind == "explicit" else model.velocity(base_state, t_base)
    stage_values = []
    for _ in range(tableau.s):
        ctx = rk_stage_context(base_state, t_base, tableau, dt, stage_values)
        stage_values.append(
            model.velocity(ctx.known, ctx.t) if ctx.c1 == 0.0
            else newton_solve(lambda w: rk_residual(model, ctx, w),
                              lambda w: rk_jacobian_terms(model, ctx, w),
                              warm, opts, newton))
    return stage_values


def _num_steps(dt: float, T: float) -> int:
    if T == 0.0:
        return 0
    steps = T / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        raise ValueError(f"T/dt = {steps} is not an integer")
    return int(round(steps))


def march(scheme, dt: float, T: float, start, step, lift=None):
    """The loop over time steps of every integrator: (states, stages), the
    states x^0 = start, ..., x^{T/dt} as rows and the stage values of each
    Runge-Kutta step (else None).  step(n, ctx, prev) solves step n from
    prev = x^{n-1}: given the LmmStepContext over the lifted states it
    returns x^n; given the lifted x^{n-1}, the stage values w_i of
    x^n = x^{n-1} + dt sum_i b_i w_i.  lift maps a state to the full space
    (None: the identity).  A state that is not finite is a StepSolveError,
    every StepSolveError names its step, and numpy's warnings are off."""
    if not isinstance(scheme, (ButcherTableau, LmmScheme)):
        raise TypeError(f"unsupported scheme type {type(scheme)!r}")
    nsteps = _num_steps(dt, T)
    rk = isinstance(scheme, ButcherTableau)
    states = np.empty((nsteps + 1, len(start)))
    states[0] = start
    stages = np.empty((nsteps, scheme.s, len(start))) if rk else None
    lift = lift or (lambda x: x)
    hist = (lift(states[0]),)  # lifted x^{n-1}, x^{n-2}, ...
    try:
        with np.errstate(all="ignore"):
            for n in range(1, nsteps + 1):
                if rk:
                    stages[n - 1] = step(n, hist[0], states[n - 1])
                    states[n] = states[n - 1] + dt * sum(
                        bi * wi for bi, wi in zip(scheme.b, stages[n - 1]))
                else:
                    states[n] = step(n, LmmStepContext(hist, n, dt, scheme),
                                     states[n - 1])
                if not np.isfinite(states[n]).all():
                    raise StepSolveError(f"state is not finite (dt = {dt})")
                hist = (lift(states[n]), *hist)[:1 if rk else scheme.k]
    except StepSolveError as err:
        err.time_index = n
        raise
    return states, stages


def integrate(model: Model, scheme, dt: float, T: float,
              opts: SolverOptions = SolverOptions()) -> Trajectory:
    """Integrate the model from t=0 to t=T; scheme is an LmmScheme or a
    ButcherTableau.  Runge-Kutta runs record their stage values."""
    newton = NewtonMatrix()

    def step(n, ctx, prev):
        if isinstance(scheme, LmmScheme):
            return solve_lmm_step(model, ctx, opts, newton)
        return solve_rk_step(model, ctx, scheme, dt, opts, (n - 1) * dt,
                             newton)

    states, stages = march(scheme, dt, T, model.initial_state, step)
    return Trajectory(dt=dt, states=states, kind="full", stages=stages)


def write_trajectory_csv(traj: Trajectory, path):
    """Export as a ``core.write_csv`` file with header t,x_0,..."""
    write_csv(path, ["t", *(f"x_{i}" for i in range(len(traj.states[0])))],
              ((n * traj.dt, *x) for n, x in enumerate(traj.states)))

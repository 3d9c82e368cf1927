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
one shifted on J's stored entries.  A ``NewtonMatrix`` factors it, with
dense LU or, for a sparse matrix, with LAPACK's band LU after a reverse
Cuthill-McKee reordering, or multiplies it with a basis, and keeps the
result while (c0, c1, J) repeat bitwise, so a linear model factors once
per step size.  ``scipy.sparse`` is imported only when a sparse Jacobian
shows up.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .core import (JacobianKey, Model, SolverOptions, Trajectory, band_order,
                   read_csv, write_csv)
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

    def __post_init__(self):
        alpha, _ = self.scheme.coeffs(self.n)
        if len(self.history) != len(alpha) - 1:
            raise ValueError(
                f"history length {len(self.history)} inconsistent with "
                f"coefficients at n={self.n} (expected {len(alpha) - 1})")


class RkStageContext(NamedTuple):
    """One explicit/DIRK Runge-Kutta stage i: the known part
    x^{n-1} + dt sum_{j<i} a_ij w_j of its point, its time
    t^{n-1} + c_i dt and c1 = dt a_ii."""

    known: np.ndarray
    t: float
    c1: float


def rk_stage_context(base_state, t_base, tableau: ButcherTableau, dt,
                     prev_stages) -> RkStageContext:
    """The context of stage i = len(prev_stages), given the values of the
    stages before it."""
    i = len(prev_stages)
    known = base_state
    for j, wj in enumerate(prev_stages):
        if tableau.a[i, j] != 0.0:
            known = known + dt * tableau.a[i, j] * wj
    return RkStageContext(known=known, t=t_base + tableau.c[i] * dt,
                          c1=dt * tableau.a[i, i])


def shifted(c0: float, c1: float, jac):
    """c0 I - c1 J with an identity of J's own type: an ndarray stays
    dense, a scipy.sparse matrix stays sparse (CSR).

    A sparse J in canonical CSR form that stores its whole diagonal is
    shifted on its stored entries: its data scaled by -c1, plus c0 on the
    diagonal.  That is the matrix c0 I - c1 J of scipy.sparse arithmetic,
    bitwise; any other sparse J takes that arithmetic."""
    n = jac.shape[0]
    if isinstance(jac, np.ndarray):
        return c0 * np.eye(n) - c1 * jac
    from scipy import sparse
    csr = jac.tocsr()
    if csr.has_canonical_format:
        rows = np.repeat(np.arange(n, dtype=csr.indices.dtype),
                         np.diff(csr.indptr))
        diag = np.flatnonzero(csr.indices == rows)
        if len(diag) == n:
            data = csr.data * -c1
            data[diag] += c0
            return sparse.csr_array((data, csr.indices, csr.indptr),
                                    shape=(n, n))
    return c0 * sparse.eye_array(n, format="csr") - c1 * csr


class NewtonMatrix:
    """c0 I - c1 J for the last (c0, c1, J) given, with its LU factor and
    its product with a basis formed on first use and kept while c0, c1 and
    the entries of J repeat bitwise.

    J is keyed by a ``core.JacobianKey``: by identity when it is a
    read-only array that owns its memory, else by a private copy of its
    contents, since a model may refill one buffer in place.  The product is
    kept for the basis object it was formed with; callers must not mutate
    either.

    A sparse c0 I - c1 J is factored by LAPACK's band LU (dgbtrf) in the
    reverse Cuthill-McKee ordering of its pattern, at O(N b^2) for a
    reordered bandwidth b: b = 1 for a tridiagonal matrix, 2 with a
    periodic wrap.  The ordering and the band positions of the stored
    entries are kept while the pattern (indptr, indices) repeats, so a
    model with a fixed pattern is ordered once.  One object serves one
    integration or bound call: it is not shared between threads.
    """

    def __init__(self):
        self._key = None
        self._solve = None
        self._basis = self._product = None
        self._band = None  # (indptr, indices, perm, positions, kl, ku)

    def _use(self, c0, c1, jac):
        key = self._key
        if key is not None and key[:2] == (c0, c1) and key[2].matches(jac):
            return
        self._key = (c0, c1, JacobianKey(jac))
        self._solve = None
        self._basis = self._product = None

    def solve(self, c0, c1, jac, rhs):
        """(c0 I - c1 J)^{-1} rhs by LU: lu_factor/lu_solve for an
        ndarray, band LU for a scipy.sparse matrix.  A sparse matrix that
        is exactly singular raises StepSolveError."""
        self._use(c0, c1, jac)
        if self._solve is None:
            mat = shifted(c0, c1, jac)
            if isinstance(mat, np.ndarray):
                lu = lu_factor(mat)
                self._solve = lambda b: lu_solve(lu, b)
            else:
                self._solve = self._band_lu(mat)
        return self._solve(rhs)

    def _band_lu(self, mat):
        """The solve of a CSR mat by dgbtrf/dgbtrs in the band ordering of
        its pattern."""
        band = self._band
        if band is None or not (np.array_equal(band[0], mat.indptr)
                                and np.array_equal(band[1], mat.indices)):
            perm, rows, cols = band_order(mat)
            rows, cols = rows.astype(np.intp), cols.astype(np.intp)
            kl = int(np.max(rows - cols, initial=0))
            ku = int(np.max(cols - rows, initial=0))
            # entry (i, j) sits at row kl + ku + i - j, column j of the
            # 2 kl + ku + 1 rows dgbtrf works in, stored column by column
            positions = cols * (2 * kl + ku + 1) + kl + ku + rows - cols
            band = self._band = (mat.indptr.copy(), mat.indices.copy(),
                                 perm, positions, kl, ku)
        _, _, perm, positions, kl, ku = band
        n = mat.shape[0]
        ab = np.zeros((n, 2 * kl + ku + 1))
        ab.ravel()[positions] = mat.data
        lu, piv, info = dgbtrf(ab.T, kl, ku, overwrite_ab=1)
        if info > 0:
            raise StepSolveError(
                f"Newton matrix is exactly singular (zero pivot {info} of "
                f"its band LU)")

        def solve(rhs):
            x = np.empty_like(rhs, dtype=float)
            x[perm] = dgbtrs(lu, kl, ku, rhs[perm], piv)[0]
            return x
        return solve

    def times(self, c0, c1, jac, basis):
        """(c0 I - c1 J) basis."""
        self._use(c0, c1, jac)
        if self._basis is not basis:
            self._basis, self._product = basis, shifted(c0, c1, jac) @ basis
        return self._product


def _block(blocks):
    """Assemble a square grid of equal-size blocks of one type."""
    if isinstance(blocks[0][0], np.ndarray):
        return np.block(blocks)
    from scipy import sparse
    return sparse.block_array(blocks, format="csr")


def lmm_residual(model: Model, ctx: LmmStepContext, w: np.ndarray) -> np.ndarray:
    alpha, beta = ctx.scheme.coeffs(ctx.n)
    tn = ctx.n * ctx.dt
    r = alpha[0] * w - ctx.dt * beta[0] * model.velocity(w, tn)
    for j in range(1, len(alpha)):
        xj = ctx.history[j - 1]
        r = r + alpha[j] * xj
        if beta[j] != 0.0:
            r = r - ctx.dt * beta[j] * model.velocity(xj, (ctx.n - j) * ctx.dt)
    return r


def lmm_jacobian_terms(model: Model, ctx: LmmStepContext, w: np.ndarray):
    """(c0, c1, J) of the residual Jacobian c0 I - c1 J: alpha_0,
    dt beta_0 and df/dx(w)."""
    alpha, beta = ctx.scheme.coeffs(ctx.n)
    return alpha[0], ctx.dt * beta[0], model.jacobian(w, ctx.n * ctx.dt)


def _newton(residual, jacobian_terms, w, opts, newton):
    """Newton from w on residual(w) = 0, whose Jacobian c0 I - c1 J is
    given by jacobian_terms(w) = (c0, c1, J); converged once |r| <=
    max(abs_tol, rel_tol |r(w)|)."""
    r = residual(w)
    tol = max(opts.newton_abs_tol, opts.newton_rel_tol * np.linalg.norm(r))
    for _ in range(opts.max_iters):
        if np.linalg.norm(r) <= tol:
            return w
        w = w - newton.solve(*jacobian_terms(w), r)
        r = residual(w)
    if np.linalg.norm(r) <= tol:
        return w
    raise StepSolveError(
        f"Newton failed to converge in {opts.max_iters} iterations "
        f"(|r| = {np.linalg.norm(r):.3e})",
        residual_norm=float(np.linalg.norm(r)))


def solve_lmm_step(model: Model, ctx: LmmStepContext,
                   opts: SolverOptions, newton=None) -> np.ndarray:
    """One multistep step by Newton; newton, a NewtonMatrix, may carry a
    factor from earlier steps."""
    alpha, beta = ctx.scheme.coeffs(ctx.n)
    if beta[0] == 0.0:
        # residual is affine in w: one direct update, no Newton
        rhs = np.zeros(model.dim)
        for j in range(1, len(alpha)):
            xj = ctx.history[j - 1]
            rhs -= alpha[j] * xj
            if beta[j] != 0.0:
                rhs += ctx.dt * beta[j] * model.velocity(
                    xj, (ctx.n - j) * ctx.dt)
        return rhs / alpha[0]
    # warm start from the previous state
    return _newton(lambda w: lmm_residual(model, ctx, w),
                   lambda w: lmm_jacobian_terms(model, ctx, w),
                   ctx.history[0].copy(), opts,
                   NewtonMatrix() if newton is None else newton)


def rk_residual(model: Model, ctx: RkStageContext, w: np.ndarray):
    """Stage residual w - f(known + c1 w, t_i)."""
    return w - model.velocity(ctx.known + ctx.c1 * w, ctx.t)


def rk_jacobian_terms(model: Model, ctx: RkStageContext, w: np.ndarray):
    """(c0, c1, J) of the stage residual's Jacobian c0 I - c1 J: 1,
    dt a_ii and df/dx at the stage point."""
    return 1.0, ctx.c1, model.jacobian(ctx.known + ctx.c1 * w, ctx.t)


def rk_stage_points(base_state, t_base, tableau: ButcherTableau, dt, ws):
    """Every stage's point x^{n-1} + dt sum_j a_ij w_j and time
    t^{n-1} + c_i dt, as (x_i, t_i) pairs; ws holds the stage values as
    rows."""
    return [(base_state + dt * (a_i @ ws), t_base + c_i * dt)
            for a_i, c_i in zip(tableau.a, tableau.c)]


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

    w = _newton(lambda wvec: rk_coupled_residual(
        model, points(wvec), wvec.reshape(s, ndof)), jacobian_terms,
        np.tile(model.velocity(base_state, t_base), s), opts, newton)
    return list(w.reshape(s, ndof))


def solve_rk_step(model: Model, base_state: np.ndarray,
                  tableau: ButcherTableau, dt: float, opts: SolverOptions,
                  t_base: float = 0.0, newton=None):
    """Solve one RK step; returns (stage_values, next_state).  newton, a
    NewtonMatrix, may carry a factor from earlier stages and steps."""
    newton = NewtonMatrix() if newton is None else newton
    kind = classify(tableau)
    if kind == "fully_implicit":
        stage_values = _solve_rk_coupled(model, base_state, t_base, tableau,
                                         dt, opts, newton)
    else:
        # the standard warm start of every implicit stage: f(x^{n-1})
        warm = None if kind == "explicit" \
            else model.velocity(base_state, t_base)
        stage_values = []
        for _ in range(tableau.s):
            ctx = rk_stage_context(base_state, t_base, tableau, dt,
                                   stage_values)
            stage_values.append(
                model.velocity(ctx.known, ctx.t) if ctx.c1 == 0.0
                else _newton(lambda w: rk_residual(model, ctx, w),
                             lambda w: rk_jacobian_terms(model, ctx, w),
                             warm, opts, newton))
    next_state = base_state + dt * sum(
        bi * wi for bi, wi in zip(tableau.b, stage_values))
    return stage_values, next_state


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
                             newton)[0]

    states, stages = march(scheme, dt, T, model.initial_state, step)
    return Trajectory(dt=dt, states=states, kind="full", stages=stages)


def write_trajectory_csv(traj: Trajectory, path, labels=None):
    """Export as a ``core.write_csv`` file with header t,x_0,..."""
    if labels is None:
        labels = [f"x_{i}" for i in range(len(traj.states[0]))]
    write_csv(path, ["t", *labels],
              ((n * traj.dt, *x) for n, x in enumerate(traj.states)))


def read_trajectory_csv(path, kind="full") -> Trajectory:
    data = read_csv(path)[1]
    t = data[:, 0]
    dt = float(t[1] - t[0]) if len(t) > 1 else 0.0
    return Trajectory(dt=dt, states=data[:, 1:], kind=kind)

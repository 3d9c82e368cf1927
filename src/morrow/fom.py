"""Full-order-model time discretization: residuals and Newton step solves.

For a linear multistep scheme the per-step unknown w satisfies

    r^n(w) = alpha_0 w - dt beta_0 f(w, t^n)
             + sum_{j>=1} alpha_j x^{n-j} - dt sum_{j>=1} beta_j f(x^{n-j}, t^{n-j}) = 0

and for a Runge-Kutta scheme the stage unknowns w_i (velocity values) satisfy

    r_i^n(w_1..w_s) = w_i - f(x^{n-1} + dt sum_j a_ij w_j, t^{n-1} + c_i dt) = 0

with the explicit state update x^n = x^{n-1} + dt sum_i b_i w_i.

Model Jacobians may be dense arrays or ``scipy.sparse`` matrices; every
Newton matrix is c0 I - c1 J (``shifted``) and keeps J's type.  A
``NewtonMatrix`` factors it with dense or sparse LU to match, or multiplies
it with a basis, and keeps the result while (c0, c1, J) repeat bitwise, so
a linear model factors once per step size.  ``scipy.sparse`` is imported
only when a sparse Jacobian shows up.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .core import JacobianKey, Model, SolverOptions, Trajectory
from .schemes import ButcherTableau, LmmScheme, classify


class StepSolveError(RuntimeError):
    """Newton non-convergence; carries the last iterate and residual norm."""

    def __init__(self, msg, last_iterate=None, residual_norm=None,
                 time_index=None):
        super().__init__(msg)
        self.last_iterate = last_iterate
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


@dataclass(frozen=True)
class RkStageSet:
    stage_values: tuple   # s vectors w_i
    base_state: np.ndarray  # x^{n-1}
    t_base: float
    dt: float
    tableau: ButcherTableau


def shifted(c0: float, c1: float, jac):
    """c0 I - c1 J with an identity of J's own type: an ndarray stays
    dense, a scipy.sparse matrix stays sparse (CSR)."""
    if isinstance(jac, np.ndarray):
        return c0 * np.eye(jac.shape[0]) - c1 * jac
    from scipy import sparse
    return c0 * sparse.eye_array(jac.shape[0], format="csr") - c1 * jac


class NewtonMatrix:
    """c0 I - c1 J for the last (c0, c1, J) given, with its LU factor and
    its product with a basis formed on first use and kept while c0, c1 and
    the entries of J repeat bitwise.

    J is keyed by a ``core.JacobianKey``: by identity when it is a
    read-only array that owns its memory, else by a private copy of its
    contents, since a model may refill one buffer in place.  The product is
    kept for the basis object it was formed with; callers must not mutate
    either.  One object serves one integration or bound call: it is not
    shared between threads.
    """

    def __init__(self):
        self._key = None
        self._solve = None
        self._basis = self._product = None

    def _use(self, c0, c1, jac):
        key = self._key
        if key is not None and key[:2] == (c0, c1) and key[2].matches(jac):
            return
        self._key = (c0, c1, JacobianKey(jac))
        self._solve = None
        self._basis = self._product = None

    def solve(self, c0, c1, jac, rhs):
        """(c0 I - c1 J)^{-1} rhs by LU: lu_factor/lu_solve for an
        ndarray, splu for a scipy.sparse matrix."""
        self._use(c0, c1, jac)
        if self._solve is None:
            mat = shifted(c0, c1, jac)
            if isinstance(mat, np.ndarray):
                lu = lu_factor(mat)
                self._solve = lambda b: lu_solve(lu, b)
            else:
                from scipy.sparse.linalg import splu
                self._solve = splu(mat.tocsc()).solve
        return self._solve(rhs)

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


def lmm_residual_jacobian(model: Model, ctx: LmmStepContext, w: np.ndarray):
    """alpha_0 I - dt beta_0 df/dx(w), dense or sparse like the model's
    Jacobian."""
    return shifted(*lmm_jacobian_terms(model, ctx, w))


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

    w = ctx.history[0].copy()  # warm start from previous state
    r = lmm_residual(model, ctx, w)
    r0 = np.linalg.norm(r)
    tol = max(opts.newton_abs_tol, opts.newton_rel_tol * r0)
    if r0 <= tol:
        return w
    newton = NewtonMatrix() if newton is None else newton
    for _ in range(opts.max_iters):
        w = w - newton.solve(*lmm_jacobian_terms(model, ctx, w), r)
        r = lmm_residual(model, ctx, w)
        if np.linalg.norm(r) <= tol:
            return w
    raise StepSolveError(
        f"Newton failed to converge in {opts.max_iters} iterations "
        f"(|r| = {np.linalg.norm(r):.3e})",
        last_iterate=w, residual_norm=float(np.linalg.norm(r)),
        time_index=ctx.n)


def rk_stage_residual(model: Model, stages: RkStageSet, i: int) -> np.ndarray:
    """Residual of stage i (1-based) given all stage values."""
    tab = stages.tableau
    arg = stages.base_state.copy()
    for j in range(tab.s):
        if tab.a[i - 1, j] != 0.0:
            arg = arg + stages.dt * tab.a[i - 1, j] * stages.stage_values[j]
    ti = stages.t_base + tab.c[i - 1] * stages.dt
    return stages.stage_values[i - 1] - model.velocity(arg, ti)


def _solve_rk_stage(model, base_state, t_base, tableau, dt, prev_stages, i,
                    opts, newton, warm):
    """Newton solve of the stagewise residual for explicit/DIRK stage i
    (0-based): w = f(x + dt a_ii w + dt sum_{j<i} a_ij w_j, t_i).  warm,
    the Newton warm start f(x, t_base), is shared by the step's stages."""
    known = base_state.copy()
    for j in range(i):
        if tableau.a[i, j] != 0.0:
            known = known + dt * tableau.a[i, j] * prev_stages[j]
    ti = t_base + tableau.c[i] * dt
    aii = tableau.a[i, i]
    if aii == 0.0:
        return model.velocity(known, ti)

    w = warm
    r = w - model.velocity(known + dt * aii * w, ti)
    tol = max(opts.newton_abs_tol, opts.newton_rel_tol * np.linalg.norm(r))
    for _ in range(opts.max_iters):
        if np.linalg.norm(r) <= tol:
            return w
        w = w - newton.solve(1.0, dt * aii,
                             model.jacobian(known + dt * aii * w, ti), r)
        r = w - model.velocity(known + dt * aii * w, ti)
    if np.linalg.norm(r) <= tol:
        return w
    raise StepSolveError(
        f"RK stage {i + 1} Newton failed (|r| = {np.linalg.norm(r):.3e})",
        last_iterate=w, residual_norm=float(np.linalg.norm(r)))


def _solve_rk_coupled(model, base_state, t_base, tableau, dt, opts, newton):
    """Coupled Newton on the stacked s*N system for fully implicit tableaus."""
    s, ndof = tableau.s, model.dim
    w = np.tile(model.velocity(base_state, t_base), s)

    def residual_and_jac(wvec):
        ws = wvec.reshape(s, ndof)
        r = np.empty((s, ndof))
        blocks = []
        for i in range(s):
            arg = base_state + dt * (tableau.a[i] @ ws)
            ti = t_base + tableau.c[i] * dt
            r[i] = ws[i] - model.velocity(arg, ti)
            jf = model.jacobian(arg, ti)
            blocks.append([dt * tableau.a[i, j] * jf for j in range(s)])
        # block (i, j) of the stacked Jacobian: delta_ij I - dt a_ij J_i
        return r.ravel(), _block(blocks)

    r, jac = residual_and_jac(w)
    tol = max(opts.newton_abs_tol, opts.newton_rel_tol * np.linalg.norm(r))
    for _ in range(opts.max_iters):
        if np.linalg.norm(r) <= tol:
            break
        w = w - newton.solve(1.0, 1.0, jac, r)
        r, jac = residual_and_jac(w)
    else:
        if np.linalg.norm(r) > tol:
            raise StepSolveError(
                f"coupled RK Newton failed (|r| = {np.linalg.norm(r):.3e})",
                last_iterate=w, residual_norm=float(np.linalg.norm(r)))
    return [w[i * ndof:(i + 1) * ndof].copy() for i in range(s)]


def solve_rk_step(model: Model, base_state: np.ndarray,
                  tableau: ButcherTableau, dt: float, opts: SolverOptions,
                  t_base: float = 0.0, newton=None):
    """Solve one RK step; returns (stage_values, next_state).  newton, a
    NewtonMatrix, may carry a factor from earlier stages and steps."""
    newton = NewtonMatrix() if newton is None else newton
    kind = classify(tableau).tag
    if kind == "fully_implicit":
        stage_values = _solve_rk_coupled(model, base_state, t_base, tableau,
                                         dt, opts, newton)
    else:
        # the standard warm start of every implicit stage: f(x^{n-1})
        warm = None if kind == "explicit" \
            else model.velocity(base_state, t_base)
        stage_values = []
        for i in range(tableau.s):
            stage_values.append(_solve_rk_stage(
                model, base_state, t_base, tableau, dt, stage_values, i, opts,
                newton, warm))
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


def integrate(model: Model, scheme, dt: float, T: float,
              opts: SolverOptions = SolverOptions()) -> Trajectory:
    """Integrate the model from t=0 to t=T; scheme is an LmmScheme or a
    ButcherTableau.  Runge-Kutta runs record their stage values."""
    if not isinstance(scheme, (ButcherTableau, LmmScheme)):
        raise TypeError(f"unsupported scheme type {type(scheme)!r}")
    nsteps = _num_steps(dt, T)
    rk = isinstance(scheme, ButcherTableau)
    states = np.empty((nsteps + 1, model.dim))
    states[0] = model.initial_state
    stages = np.empty((nsteps, scheme.s, model.dim)) if rk else None
    newton = NewtonMatrix()
    try:
        for n in range(1, nsteps + 1):
            if rk:
                stages[n - 1], states[n] = solve_rk_step(
                    model, states[n - 1], scheme, dt, opts,
                    t_base=(n - 1) * dt, newton=newton)
            else:
                hist = tuple(states[n - j]
                             for j in range(1, min(scheme.k, n) + 1))
                ctx = LmmStepContext(history=hist, n=n, dt=dt, scheme=scheme)
                states[n] = solve_lmm_step(model, ctx, opts, newton)
    except StepSolveError as err:
        if err.time_index is None:
            err.time_index = n
        raise
    return Trajectory(dt=dt, states=states, kind="full", stages=stages)


def write_trajectory_csv(traj: Trajectory, path, labels=None):
    """Export as CSV with header t,x_0,...  Values use shortest decimal
    representation that round-trips binary64."""
    d = len(traj.states[0])
    if labels is None:
        labels = [f"x_{i}" for i in range(d)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(labels) + "\n")
        for n, x in enumerate(traj.states):
            t = n * traj.dt
            fh.write(repr(float(t)) + ","
                     + ",".join(repr(float(v)) for v in x) + "\n")


def read_trajectory_csv(path, kind="full") -> Trajectory:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    data = np.atleast_2d(data)
    t = data[:, 0]
    dt = float(t[1] - t[0]) if len(t) > 1 else 0.0
    return Trajectory(dt=dt, states=data[:, 1:], kind=kind)

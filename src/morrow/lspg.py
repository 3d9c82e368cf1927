"""Least-squares Petrov-Galerkin reduced-order model.

Each time step solves min_yhat || W r^n(x0 + Phi yhat) ||_2^2 by Gauss-Newton
with a backtracking line search.  The weighting is W = F Z: a row selection Z
followed by a scalar or small dense factor F, which covers the scaled
identity, collocation, GNAT's gappy POD and a dense SPD factor.  The
stationary point satisfies the Petrov-Galerkin condition (Psi^n)^T r^n = 0
with test basis Psi^n = W^T W (alpha_0 I - dt beta_0 df/dx) Phi (W is
constant, so the dW/dw term vanishes).  Runge-Kutta variants minimize per
stage (explicit/DIRK) or over the coupled stacked stage system, whose stage
blocks are each weighted by W.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .core import SolverOptions, Trajectory, reconstruct
from . import fom
from .schemes import ButcherTableau, LmmScheme, classify


class GaussNewtonError(RuntimeError):
    def __init__(self, msg, smallest_singular_value=None, time_index=None):
        super().__init__(msg)
        self.smallest_singular_value = smallest_singular_value
        self.time_index = time_index


class WeightingOperator:
    """Constant weighting A = F Z of the LSPG objective ||A r||^2.

    Z selects `rows` of R^dim (all of them when None) and F, the `factor`, is
    a scalar or a small dense matrix: gamma I is (all rows, gamma),
    collocation is (indices, 1), GNAT's gappy POD is (indices, (Z Phi_r)^+).
    Exposes apply (A v), apply_mat (A M) and gram_mat (A^T A M); all are
    state-independent.
    """

    def __init__(self, dim, rows=None, factor=1.0):
        self.dim = dim
        self.rows = None if rows is None else np.asarray(rows, int)
        self.factor = np.asarray(factor, float)

    def _select(self, m):
        return m if self.rows is None else m[self.rows]

    def apply(self, v):
        z = self._select(v)
        # a 0-d factor through np.dot costs several times the multiply
        return self.factor * z if self.factor.ndim == 0 else self.factor @ z

    apply_mat = apply

    def gram_mat(self, m):
        """A^T A M = Z^T F^T F Z M without forming A^T A explicitly."""
        z = self._select(m)
        f = self.factor
        g = f**2 * z if f.ndim == 0 else f.T @ (f @ z)
        if self.rows is None:
            return g
        out = np.zeros_like(m)
        out[self.rows] = g
        return out

    def stacked(self, s):
        """The same weighting on each block of s stacked copies of R^dim."""
        rows = None if self.rows is None else (
            self.rows + self.dim * np.arange(s)[:, None]).ravel()
        factor = self.factor if self.factor.ndim == 0 \
            else block_diag(*[self.factor] * s)
        return WeightingOperator(s * self.dim, rows, factor)


def scaled_identity(dim, gamma=1.0):
    return WeightingOperator(dim, factor=gamma)


def collocation(dim, samples):
    return WeightingOperator(dim, getattr(samples, "indices", samples))


@dataclass
class GaussNewtonReport:
    iterations: int
    objective_history: list
    converged: bool
    grad_norm: float

    @property
    def objective_final(self):
        return self.objective_history[-1]


def _gauss_newton(residual, jacobian, y0, W, opts, callback=None):
    """Minimize ||W residual(y)||^2; residual maps R^p -> R^N.

    jacobian(y) returns the N x p derivative of the residual.  The linear
    subproblems use QR of the weighted Jacobian; steps are globalized with
    an Armijo backtracking line search (c = 1e-4, halving, <= 30 backtracks).
    """
    y = np.array(y0, dtype=float)
    r = residual(y)
    rw = W.apply(r)
    obj = float(rw @ rw)
    history = [obj]
    iters = 0
    converged = False
    gnorm = np.inf
    gtol = None

    while True:
        jw = W.apply_mat(jacobian(y))
        if jw.shape[0] < jw.shape[1]:
            smin = float(np.linalg.svd(jw, compute_uv=False)[-1]) \
                if jw.size else 0.0
            raise GaussNewtonError(
                f"underdetermined Gauss-Newton system: {jw.shape[0]} weighted "
                f"rows for {jw.shape[1]} unknowns",
                smallest_singular_value=smin)
        grad = 2.0 * jw.T @ rw
        gnorm = float(np.linalg.norm(grad))
        if gtol is None:
            gtol = max(opts.newton_abs_tol, opts.newton_rel_tol * gnorm)
        if gnorm <= gtol:
            converged = True
            break
        if iters >= opts.max_iters:
            break

        if callback is not None:
            callback(r)

        q, rr = np.linalg.qr(jw)
        diag = np.abs(np.diag(rr))
        if diag.min() <= 1e-13 * max(diag.max(), 1.0):
            smin = float(np.linalg.svd(jw, compute_uv=False)[-1])
            raise GaussNewtonError(
                f"rank-deficient Gauss-Newton system (sigma_min = {smin:.3e})",
                smallest_singular_value=smin)
        step = -solve_triangular(rr, q.T @ rw)

        # Armijo condition on the squared objective
        slope = float(grad @ step)
        alpha = 1.0
        accepted = False
        for _ in range(30):
            y_try = y + alpha * step
            r_try = residual(y_try)
            rw_try = W.apply(r_try)
            obj_try = float(rw_try @ rw_try)
            if obj_try <= obj + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # stalled line search

        rel_drop = (obj - obj_try) / max(obj, 1e-300)
        y, r, rw, obj = y_try, r_try, rw_try, obj_try
        history.append(obj)
        iters += 1
        if rel_drop < 1e-15:
            # objective stagnated at the solver's floating-point floor
            converged = True
            gnorm = float(np.linalg.norm(2.0 * W.apply_mat(jacobian(y)).T @ rw))
            break

    report = GaussNewtonReport(iterations=iters, objective_history=history,
                               converged=converged, grad_norm=gnorm)
    return y, report


def compute_test_basis(model, sub, W, ctx, yhat):
    """The N x p test basis Psi^n = W^T W (alpha_0 I - dt beta_0 df/dx) Phi
    at the given iterate."""
    x = reconstruct(sub, yhat)
    jr = fom.lmm_residual_jacobian(model, ctx, x)
    return W.gram_mat(jr @ sub.basis)


def solve_lspg_step_lmm(model, sub, W, ctx, opts, yhat_warm=None,
                        callback=None, newton=None):
    """One LSPG linear-multistep step; ctx carries the lifted (full-space)
    history.  newton, a fom.NewtonMatrix, may carry the residual Jacobian
    times Phi from earlier steps.  Returns (yhat, GaussNewtonReport)."""
    if yhat_warm is None:
        yhat_warm = np.zeros(sub.p)
    phi = sub.basis
    newton = fom.NewtonMatrix() if newton is None else newton

    def residual(y):
        return fom.lmm_residual(model, ctx, reconstruct(sub, y))

    def jacobian(y):
        return newton.times(*fom.lmm_jacobian_terms(
            model, ctx, reconstruct(sub, y)), phi)

    return _gauss_newton(residual, jacobian, yhat_warm, W, opts,
                         callback=callback)


@dataclass(frozen=True)
class RkStageContext:
    """Stage i (0-based) of a Runge-Kutta LSPG step for explicit/DIRK
    tableaus; prev_stage_coords are the converged reduced stage velocities
    yhat_1..yhat_{i-1}."""

    base_full: np.ndarray   # x^{n-1} in full space
    t_base: float
    dt: float
    tableau: ButcherTableau
    i: int
    prev_stage_coords: tuple
    yhat_warm: np.ndarray   # Phi^T f(x^{n-1}, t^{n-1}), shared by the stages


def solve_lspg_rk_stage(model, sub, W, stage_ctx: RkStageContext, opts,
                        callback=None, newton=None):
    """One explicit/DIRK stage; newton, a fom.NewtonMatrix, may carry the
    stage Jacobian times Phi from earlier stages and steps."""
    tab = stage_ctx.tableau
    i, dt = stage_ctx.i, stage_ctx.dt
    phi = sub.basis
    known = stage_ctx.base_full.copy()
    for j in range(i):
        if tab.a[i, j] != 0.0:
            known = known + dt * tab.a[i, j] * (phi @ stage_ctx.prev_stage_coords[j])
    ti = stage_ctx.t_base + tab.c[i] * dt
    aii = tab.a[i, i]
    newton = fom.NewtonMatrix() if newton is None else newton

    def residual(y):
        w = phi @ y
        return w - model.velocity(known + dt * aii * w, ti)

    def jacobian(y):
        if aii == 0.0:
            return phi
        jf = model.jacobian(known + dt * aii * (phi @ y), ti)
        return newton.times(1.0, dt * aii, jf, phi)

    return _gauss_newton(residual, jacobian, stage_ctx.yhat_warm, W, opts,
                         callback=callback)


def solve_lspg_rk_coupled(model, sub, W, base_full, t_base, tableau, dt, opts):
    """Coupled minimization over all s stages at once (any tableau), each
    stage block of the stacked residual weighted by W."""
    s, p = tableau.s, sub.p
    phi = sub.basis
    times = t_base + tableau.c * dt

    def stage_args(z):
        ys = z.reshape(s, p)
        return ys, [base_full + dt * phi @ (tableau.a[i] @ ys)
                    for i in range(s)]

    def residual(z):
        ys, args = stage_args(z)
        return np.concatenate([phi @ ys[i] - model.velocity(args[i], times[i])
                               for i in range(s)])

    def jacobian(z):
        _, args = stage_args(z)
        jf_phi = [model.jacobian(args[i], times[i]) @ phi for i in range(s)]
        return np.block([[(i == j) * phi - dt * tableau.a[i, j] * jf_phi[i]
                          for j in range(s)] for i in range(s)])

    z0 = np.tile(phi.T @ model.velocity(base_full, t_base), s)
    z, report = _gauss_newton(residual, jacobian, z0, W.stacked(s), opts)
    return z.reshape(s, p), report


def _integrate_lspg_lmm(model, sub, W, scheme, dt, nsteps, opts, callback):
    yhats = [np.zeros(sub.p)]
    lifted = [reconstruct(sub, yhats[0])]
    reports = []
    newton = fom.NewtonMatrix()
    for n in range(1, nsteps + 1):
        hist = tuple(lifted[n - j] for j in range(1, min(scheme.k, n) + 1))
        ctx = fom.LmmStepContext(history=hist, n=n, dt=dt, scheme=scheme)
        try:
            yhat, report = solve_lspg_step_lmm(
                model, sub, W, ctx, opts, yhat_warm=yhats[-1],
                callback=callback, newton=newton)
        except GaussNewtonError as err:
            err.time_index = n
            raise
        yhats.append(yhat)
        lifted.append(reconstruct(sub, yhat))
        reports.append(report)
    return yhats, reports


def _integrate_lspg_rk(model, sub, W, tableau, dt, nsteps, opts, callback):
    tag = classify(tableau).tag
    yhats = [np.zeros(sub.p)]
    stages = np.empty((nsteps, tableau.s, sub.p))
    reports = []
    newton = fom.NewtonMatrix()
    for n in range(1, nsteps + 1):
        base_full = reconstruct(sub, yhats[-1])
        t_base = (n - 1) * dt
        if tag == "fully_implicit":
            stage_coords, report = solve_lspg_rk_coupled(
                model, sub, W, base_full, t_base, tableau, dt, opts)
            reports.append(report)
        else:
            warm = sub.basis.T @ model.velocity(base_full, t_base)
            stage_coords = []
            for i in range(tableau.s):
                ctx = RkStageContext(base_full=base_full, t_base=t_base,
                                     dt=dt, tableau=tableau, i=i,
                                     prev_stage_coords=tuple(stage_coords),
                                     yhat_warm=warm)
                yi, report = solve_lspg_rk_stage(model, sub, W, ctx, opts,
                                                 callback=callback,
                                                 newton=newton)
                stage_coords.append(yi)
                reports.append(report)
        stages[n - 1] = stage_coords
        nxt = yhats[-1] + dt * sum(
            bi * yi for bi, yi in zip(tableau.b, stage_coords))
        yhats.append(nxt)
    return yhats, reports, stages


def integrate_lspg(model, sub, W, scheme, dt, T,
                   opts: SolverOptions = SolverOptions(), callback=None):
    """LSPG trajectory in generalized coordinates; returns
    (Trajectory(kind='lspg'), per-step GaussNewtonReport list).  Runge-Kutta
    runs record the reduced stage values in the trajectory's stages.

    callback, if given, receives the full-space residual vector at every
    Gauss-Newton iterate (used for residual-snapshot collection).
    """
    nsteps = fom._num_steps(dt, T)
    stages = None
    if isinstance(scheme, LmmScheme):
        yhats, reports = _integrate_lspg_lmm(model, sub, W, scheme, dt,
                                             nsteps, opts, callback)
    elif isinstance(scheme, ButcherTableau):
        yhats, reports, stages = _integrate_lspg_rk(
            model, sub, W, scheme, dt, nsteps, opts, callback)
    else:
        raise TypeError(f"unsupported scheme type {type(scheme)!r}")
    traj = Trajectory(dt=dt, states=yhats, kind="lspg", stages=stages)
    return traj, reports


def write_gn_diagnostics_csv(reports, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,iters,objective_final,grad_norm\n")
        for n, rep in enumerate(reports, start=1):
            fh.write(f"{n},{rep.iterations},{rep.objective_final!r},"
                     f"{rep.grad_norm!r}\n")

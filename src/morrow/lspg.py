"""Least-squares Petrov-Galerkin reduced-order model.

Each time step solves min_yhat || W r^n(x0 + Phi yhat) ||_2^2 by Gauss-Newton
with a backtracking line search.  The weighting is W = F Z: a row selection Z
followed by a scalar or small dense factor F, which covers the scaled
identity, collocation, GNAT's gappy POD and a dense SPD factor.  The
stationary point satisfies the Petrov-Galerkin condition (Psi^n)^T r^n = 0
with test basis Psi^n = W^T W (alpha_0 I - dt beta_0 df/dx) Phi (W is
constant, so the dW/dw term vanishes).  Runge-Kutta variants minimize per
stage (explicit/DIRK) or over the coupled stacked stage system, whose stage
blocks are each weighted by W.  The Runge-Kutta residuals are fom's own
(``fom.rk_residual``, ``fom.rk_coupled_residual``) at stage values Phi y, as
the multistep one is ``fom.lmm_residual`` at x0 + Phi yhat.

When W selects rows (GNAT, collocation) and the model can restrict itself
(``core.Model.restrict``), a multistep step or an explicit/DIRK stage
evaluates those residual rules, and the Newton product
(c0 I - c1 J) Phi, on the selected rows only, with the states lifted on
their sample mesh (``_sample_mesh``); only the Runge-Kutta warm start
Phi^T f(x^{n-1}) still evaluates f in full.  A run with a callback or a
fully implicit tableau stays on all rows.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.linalg.lapack import dtrtrs

from .core import (SolverOptions, Trajectory, TrialSubspace, reconstruct,
                   write_csv)
from . import fom
from .schemes import ButcherTableau, LmmScheme, classify


class GaussNewtonError(fom.StepSolveError):
    def __init__(self, msg, smallest_singular_value=None):
        super().__init__(msg)
        self.smallest_singular_value = smallest_singular_value


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
        if self.rows is not None:
            outside = self.rows[(self.rows < 0) | (self.rows >= dim)]
            if len(outside):
                raise ValueError(
                    f"row {outside[0]} is outside [0, {dim})")

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
        if not (np.isfinite(obj) and np.isfinite(gnorm)):
            # an infinite first gradient would set gtol = inf and accept y0
            raise GaussNewtonError(
                "Gauss-Newton objective or gradient is not finite")
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
        qtr = q.T @ rw
        if not (np.isfinite(rr).all() and np.isfinite(qtr).all()):
            raise GaussNewtonError("Gauss-Newton system is not finite")
        diag = np.abs(np.diag(rr))
        if diag.min() <= 1e-13 * max(diag.max(), 1.0):
            smin = float(np.linalg.svd(jw, compute_uv=False)[-1])
            raise GaussNewtonError(
                f"rank-deficient Gauss-Newton system (sigma_min = {smin:.3e})",
                smallest_singular_value=smin)
        # the LAPACK call scipy.linalg.solve_triangular(rr, qtr) makes for
        # numpy's C-ordered R, without its per-call wrapper cost
        step = -dtrtrs(rr.T, qtr, lower=1, trans=1)[0]

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


def compute_test_basis(model, sub, W, ctx, x, newton=None):
    """The N x p test basis Psi^n = W^T W (alpha_0 I - dt beta_0 df/dx) Phi
    at the lifted iterate x.  newton, a fom.NewtonMatrix, may carry the
    product (alpha_0 I - dt beta_0 df/dx) Phi from earlier steps."""
    newton = fom.NewtonMatrix() if newton is None else newton
    return W.gram_mat(newton.times(*fom.lmm_jacobian_terms(model, ctx, x),
                                   sub.basis))


def solve_lspg_step_lmm(model, sub, W, ctx, opts, yhat_warm=None,
                        callback=None, newton=None, rows=None):
    """One LSPG linear-multistep step; ctx carries the lifted (full-space)
    history.  newton, a fom.NewtonMatrix, may carry the residual Jacobian
    times Phi from earlier steps; an explicit step's (beta_0 = 0) is
    alpha_0 Phi, with no model Jacobian.  On a sample mesh, model, sub, W
    and rows are what ``_sample_mesh`` returns, ctx carries the history on
    the mesh and newton is a fom.NewtonMatrix(rows).  Returns
    (yhat, GaussNewtonReport)."""
    if yhat_warm is None:
        yhat_warm = np.zeros(sub.p)
    phi = sub.basis
    newton = fom.NewtonMatrix() if newton is None else newton
    alpha, beta = ctx.scheme.coeffs(ctx.n)

    def residual(y):
        return fom.lmm_residual(model, ctx, reconstruct(sub, y), rows)

    def jacobian(y):
        if beta[0] == 0.0:
            return alpha[0] * (phi if rows is None else phi[rows])
        return newton.times(*fom.lmm_jacobian_terms(
            model, ctx, reconstruct(sub, y)), phi)

    return _gauss_newton(residual, jacobian, yhat_warm, W, opts,
                         callback=callback)


def solve_lspg_rk_stage(model, sub, W, ctx, opts, yhat_warm, callback=None,
                        newton=None, rows=None):
    """One explicit/DIRK stage: minimizes fom's stage residual at the
    stage value Phi y, with ctx a fom.RkStageContext in full space, or on
    the sample mesh as in ``solve_lspg_step_lmm``.  newton, a
    fom.NewtonMatrix, may carry the stage Jacobian times Phi from earlier
    stages and steps."""
    phi = sub.basis
    newton = fom.NewtonMatrix() if newton is None else newton

    def residual(y):
        return fom.rk_residual(model, ctx, phi @ y, rows)

    def jacobian(y):
        if ctx.c1 == 0.0:
            return phi if rows is None else phi[rows]
        return newton.times(*fom.rk_jacobian_terms(model, ctx, phi @ y), phi)

    return _gauss_newton(residual, jacobian, yhat_warm, W, opts,
                         callback=callback)


def solve_lspg_rk_coupled(model, sub, W, base_full, t_base, tableau, dt, opts,
                          callback=None):
    """Coupled minimization of fom's stacked stage residual over all s
    stages at once (any tableau), at stage values Phi y_i, each stage block
    weighted by W.  callback, if given, receives each stage block of the
    residual."""
    s, p = tableau.s, sub.p
    phi = sub.basis

    def stages(z):
        ws = [phi @ y for y in z.reshape(s, p)]
        return ws, fom.rk_stage_points(base_full, t_base, tableau, dt, ws)

    def residual(z):
        ws, points = stages(z)
        return fom.rk_coupled_residual(model, points, ws)

    def jacobian(z):
        jf_phi = [model.jacobian(x, t) @ phi for x, t in stages(z)[1]]
        return np.block([[(i == j) * phi - dt * tableau.a[i, j] * jf_phi[i]
                          for j in range(s)] for i in range(s)])

    def blocks(r):
        for block in r.reshape(s, -1):
            callback(block)

    z0 = np.tile(phi.T @ model.velocity(base_full, t_base), s)
    z, report = _gauss_newton(residual, jacobian, z0, W.stacked(s), opts,
                              callback=None if callback is None else blocks)
    return z.reshape(s, p), report


def _sample_mesh(model, sub, W):
    """(model, sub, W, rows) of a step solved on the rows W selects: the
    ``core.SampleMesh`` of those rows, the trial subspace's rows on its
    mesh (x0[mesh] + range(Phi[mesh]), a basis that is not orthonormal),
    W's factor alone, and the positions of W's rows on the mesh.  None
    when W keeps every row, the model cannot restrict itself, or the mesh
    has fewer states than the basis has modes (a step that is
    underdetermined anyway)."""
    if W.rows is None or model.restrict is None:
        return None
    sampled = model.restrict(W.rows)
    mesh = sampled.mesh
    if len(mesh) < sub.p:
        return None
    return (sampled, TrialSubspace(sub.basis[mesh], sub.reference[mesh]),
            WeightingOperator(len(W.rows), factor=W.factor),
            np.searchsorted(mesh, W.rows))


def integrate_lspg(model, sub, W, scheme, dt, T,
                   opts: SolverOptions = SolverOptions(), callback=None):
    """LSPG trajectory in generalized coordinates, marched by ``fom.march``:
    (Trajectory(kind='lspg'), per-step GaussNewtonReport list), with the
    reduced stage values of a Runge-Kutta run in its stages.  callback, if
    given, receives the full-space residual vector at every Gauss-Newton
    iterate, each stage block of it for a fully implicit tableau (used for
    residual-snapshot collection).  Without a callback, steps run on the
    sample mesh of W's rows when ``_sample_mesh`` gives one: a multistep
    history is lifted on the mesh, a Runge-Kutta base state in full."""
    lmm = isinstance(scheme, LmmScheme)
    coupled = isinstance(scheme, ButcherTableau) \
        and classify(scheme) == "fully_implicit"
    phi = sub.basis
    reports = []
    sampled = None if callback is not None or coupled \
        else _sample_mesh(model, sub, W)
    on_model, on_sub, on_W, rows = sampled or (model, sub, W, None)
    newton = fom.NewtonMatrix(rows)

    def step(n, ctx, prev):
        t_base = (n - 1) * dt
        if lmm:
            yhat, report = solve_lspg_step_lmm(on_model, on_sub, on_W, ctx,
                                               opts, prev, callback, newton,
                                               rows)
            reports.append(report)
            return yhat
        if coupled:
            coords, report = solve_lspg_rk_coupled(
                model, sub, W, ctx, t_base, scheme, dt, opts, callback)
            reports.append(report)
            return coords
        warm = phi.T @ model.velocity(ctx, t_base)
        base = ctx if rows is None else ctx[on_model.mesh]
        coords, stage_values = [], []
        for _ in range(scheme.s):
            stage = fom.rk_stage_context(base, t_base, scheme, dt,
                                         stage_values)
            yi, report = solve_lspg_rk_stage(on_model, on_sub, on_W, stage,
                                             opts, warm, callback, newton,
                                             rows)
            coords.append(yi)
            stage_values.append(on_sub.basis @ yi)
            reports.append(report)
        return coords

    lifted = on_sub if lmm else sub
    states, stages = fom.march(scheme, dt, T, np.zeros(sub.p), step,
                               lambda y: reconstruct(lifted, y))
    return Trajectory(dt=dt, states=states, kind="lspg", stages=stages), \
        reports


def write_gn_diagnostics_csv(reports, path):
    write_csv(path, ["n", "iters", "objective_final", "grad_norm"],
              ((n, rep.iterations, rep.objective_final, rep.grad_norm)
               for n, rep in enumerate(reports, start=1)))

"""Computable error bounds for Galerkin and LSPG reduced-order models.

Local linear-multistep bounds at step n take the form

    |dx^n| <= sum_l gamma1_l^n * ||(I - Proj) f(x0 + Phi y^{n-l})||
              + sum_{l>=1} gamma2_l^n * |dx^{n-l}|

with gamma1_l = |beta_l| dt / h, gamma2_l = (|alpha_l| + |beta_l| kappa dt)/h
and h = |alpha_0| - |beta_0| kappa dt, where Proj is the orthogonal projector
Phi Phi^T (Galerkin) or the oblique projector Phi (Psi^T Phi)^{-1} Psi^T
(LSPG), which is kept factored so that no N x N matrix is formed.  A priori
bounds evaluate f at FOM states and scale kappa by ||Proj||_2 in h and
gamma2.  Global bounds and the auxiliary increment bound propagate local
terms by forward recursion, which equals the path-sum over coefficient
tuples (and the closed sums under backward Euler); the auxiliary step is
solved by fom's Newton loop.  Runge-Kutta bounds read the stage values that the
integrators record in ``Trajectory.stages``; they never re-solve a stage.
Every bound evaluates f where its run did: at ROM states lifted by
``core.lift`` and stage points that ``fom.rk_stage_points`` forms as the
run did.  All kappa-dependent bounds are valid modulo under-estimation of
the Lipschitz constant.
"""

from dataclasses import dataclass

import numpy as np

from .core import (JacobianKey, Model, SolverOptions, TrialSubspace,
                   Trajectory, lift, norm2, norm2_at_most, reconstruct,
                   write_csv)
from . import fom, lspg as lspg_mod
from .schemes import ButcherTableau, LmmScheme, classify


class BoundHypothesisError(ValueError):
    """A theorem hypothesis (time-step cap, invertibility, ...) failed."""


@dataclass
class LocalStepTerms:
    """Per-step ingredients of the local linear-multistep bound."""

    n: int
    h: float
    gamma1: np.ndarray      # l = 0..k_eff
    gamma2: np.ndarray      # l = 1..k_eff
    terms: np.ndarray       # ||(I - Proj^n) f(x0 + Phi y^{n-l})||, l = 0..k_eff
    residual_norm: float    # ||rbar^n(Phi y^n)|| (FOM residual, ROM history)
    proj_norm: float        # ||P^n||_2 (1 for Galerkin)

    @property
    def proj_contrib(self) -> float:
        return float(self.gamma1 @ self.terms)


@dataclass
class BoundReport:
    kind: str
    per_step_local: np.ndarray   # local contribution c^n (index 0 unused)
    per_step_bound: np.ndarray   # global bound B^n, B^0 = 0
    term_projection: np.ndarray  # l=0 raw projection term per step
    coeff: np.ndarray            # gamma1_0 per step

    @property
    def global_bound(self) -> float:
        return float(self.per_step_bound[-1])


@dataclass
class AuxiliaryIncrementReport:
    mu: np.ndarray
    mu_bar: np.ndarray
    f_norms: np.ndarray
    bound_increment_form: np.ndarray   # (1 + k dt) sum mu^{n-j} / h^{j+1}
    bound_relative_form: np.ndarray    # dt (1 + k dt) sum mu_bar .. ||f||
    degenerate: np.ndarray             # flags where the increment vanished


def estimate_lipschitz(model: Model, sample_states, t_grid) -> float:
    """Sampled local Lipschitz estimate.

    Max of pairwise velocity quotients and spectral norms of the Jacobian
    at the samples; a lower bound on the true constant, reported as such.
    """
    samples = [np.asarray(x, float) for x in sample_states]
    if len(samples) < 2:
        raise ValueError("need at least 2 sample states")
    kappa = max_jacobian_norm(model, samples * len(t_grid),
                              [t for t in t_grid for _ in samples])
    for t in t_grid:
        fs = [model.velocity(x, t) for x in samples]
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                dx = np.linalg.norm(samples[i] - samples[j])
                if dx > 0:
                    kappa = max(kappa, float(
                        np.linalg.norm(fs[i] - fs[j]) / dx))
    return kappa


def max_jacobian_norm(model: Model, states, times) -> float:
    """max_n ||J(states[n], times[n])||_2 (0 for no states), to roundoff.

    The last state's 2-norm is taken first; every other state's J is then
    only certified to be at most the largest norm so far
    (``norm2_at_most``) and normed when that fails, so a trajectory whose
    norm peaks at either end takes two 2-norms.  A J whose entries repeat
    the previous one's is skipped, so a linear model takes one.
    """
    largest, key = 0.0, None
    order = list(range(len(states)))
    for i in order[-1:] + order[:-1]:
        jac = model.jacobian(states[i], times[i])
        if key is not None and key.matches(jac):
            continue
        key = JacobianKey(jac)
        if largest == 0.0 or not norm2_at_most(jac, largest):
            largest = max(largest, norm2(jac))
    return largest


class _ObliqueProjector:
    """P = Phi (Psi^T Phi)^{-1} Psi^T in factored form: only the N x p
    bases and the p x p matrix Psi^T Phi are held.  Phi must be
    orthonormal (as TrialSubspace requires)."""

    def __init__(self, sub: TrialSubspace, psi: np.ndarray):
        self.phi = sub.basis
        self.psi = psi
        self.m = psi.T @ self.phi
        sv = np.linalg.svd(self.m, compute_uv=False)
        if sv[-1] <= 1e-13 * sv[0]:
            raise BoundHypothesisError(
                f"Psi^T Phi is numerically singular "
                f"(sigma_min = {sv[-1]:.3e})")

    def deflate(self, v):
        """(I - P) v."""
        return v - self.phi @ np.linalg.solve(self.m, self.psi.T @ v)

    def norm(self) -> float:
        """||P||_2 = ||(Psi^T Phi)^{-1} R^T||_2 with Psi = Q R: Phi has
        orthonormal columns and Q^T orthonormal rows, so neither factor
        changes the 2-norm."""
        r = np.linalg.qr(self.psi, mode="r")
        return float(np.linalg.norm(np.linalg.solve(self.m, r.T), 2))


class _OrthogonalProjector:
    """P = Phi Phi^T, of 2-norm 1 since Phi is orthonormal."""

    def __init__(self, sub: TrialSubspace):
        self.phi = sub.basis

    def deflate(self, v):
        return v - self.phi @ (self.phi.T @ v)

    def norm(self) -> float:
        return 1.0


def _step_projector(kind, sub, psi):
    """The projector of one step or stage, the only place either is built:
    I - Phi Phi^T for Galerkin, the oblique projector for LSPG, whose test
    basis psi() is formed for LSPG only."""
    if kind == "galerkin":
        return _OrthogonalProjector(sub)
    return _ObliqueProjector(sub, psi())


def _check_kind(traj, kind, W):
    """A ROM kind the bounds know, the one traj ran as, and for LSPG the
    weighting it ran with."""
    if kind not in ("galerkin", "lspg"):
        raise ValueError(f"unknown ROM kind {kind!r}")
    if traj.kind != kind:
        raise ValueError(f"a {kind} bound of a run of kind {traj.kind!r}")
    if kind == "lspg" and W is None:
        raise ValueError("lspg bounds need the weighting operator")


def _lmm_local_terms(traj, kind, model, sub, scheme, kappa, W, f_states,
                     proj_in_h):
    """Local multistep terms along a ROM trajectory with f evaluated at
    f_states: the lifted ROM states (None) a posteriori, the FOM states a
    priori.  f is evaluated once per state and each step's terms reuse it.
    When proj_in_h, kappa enters h and gamma2 scaled by ||Proj^n||_2 and no
    residual norm is taken (the a priori form)."""
    _check_kind(traj, kind, W)
    dt = traj.dt
    lifted = lift(sub, traj).states
    f_states = lifted if f_states is None else f_states
    fvals = [model.velocity(f_states[n], n * dt)
             for n in range(len(traj.states))]
    newton = fom.NewtonMatrix()
    out = []
    for n in range(1, len(traj.states)):
        alpha, beta = scheme.coeffs(n)
        k_eff = len(alpha) - 1
        hist = tuple(lifted[n - j] for j in range(1, k_eff + 1))
        ctx = fom.LmmStepContext(history=hist, n=n, dt=dt, scheme=scheme)
        proj = _step_projector(kind, sub, lambda: lspg_mod.compute_test_basis(
            model, sub, W, ctx, lifted[n], newton))
        proj_norm = proj.norm()
        scale = proj_norm if proj_in_h else 1.0
        h = abs(alpha[0]) - abs(beta[0]) * kappa * dt * scale
        if h <= 0.0:
            raise BoundHypothesisError(
                f"time-step condition violated at n={n}: dt must be < "
                f"|alpha_0|/(|beta_0| kappa{' ||P||' if proj_in_h else ''})"
                f" = {abs(alpha[0]) / (abs(beta[0]) * kappa * scale):.3e}")
        residual_norm = 0.0 if proj_in_h else float(np.linalg.norm(
            fom.lmm_residual(model, ctx, lifted[n])))
        terms = np.array([np.linalg.norm(proj.deflate(fvals[n - ell]))
                          for ell in range(k_eff + 1)])
        gamma1 = np.abs(beta) * dt / h
        gamma2 = (np.abs(alpha[1:])
                  + np.abs(beta[1:]) * kappa * dt * scale) / h
        out.append(LocalStepTerms(
            n=n, h=h, gamma1=gamma1, gamma2=gamma2, terms=terms,
            residual_norm=residual_norm, proj_norm=proj_norm))
    return out


def local_aposteriori_lmm(traj: Trajectory, kind: str, model: Model,
                          sub: TrialSubspace, scheme: LmmScheme,
                          kappa: float, W=None):
    """Per-step local a posteriori bound terms along a ROM trajectory.

    kind selects the projector: 'galerkin' uses I - Phi Phi^T, 'lspg' uses
    the oblique projector built from the test basis at the converged step
    (W required).  Raises if the time-step condition h^n > 0 fails.
    """
    return _lmm_local_terms(traj, kind, model, sub, scheme, kappa, W,
                            f_states=None, proj_in_h=False)


def _report(local_terms, kind, bound, local=None):
    """BoundReport carrying each step's l = 0 term and gamma1_0."""
    term0 = np.zeros(len(bound))
    coeff0 = np.zeros(len(bound))
    for lt in local_terms:
        term0[lt.n] = lt.terms[0]
        coeff0[lt.n] = lt.gamma1[0]
    return BoundReport(kind=kind,
                       per_step_local=np.zeros(len(bound)) if local is None
                       else local, per_step_bound=bound,
                       term_projection=term0, coeff=coeff0)


def _propagate(local_terms, kind):
    bound = np.zeros(len(local_terms) + 1)
    local = np.zeros(len(local_terms) + 1)
    for lt in local_terms:
        c = lt.proj_contrib
        b = c
        for ell in range(1, len(lt.gamma2) + 1):
            b += lt.gamma2[ell - 1] * bound[lt.n - ell]
        bound[lt.n] = b
        local[lt.n] = c
    return _report(local_terms, kind, bound, local)


def global_aposteriori_lmm(local_terms, kind="galerkin") -> BoundReport:
    """Forward recursion B^n = c^n + sum_l gamma2_l^n B^{n-l}, B^0 = 0;
    equal to the path-sum over coefficient tuples (proved by the
    enumeration cross-check in the test suite)."""
    return _propagate(local_terms, kind)


def _expm1_div(a, kappa: float):
    """(exp(a * kappa) - 1) / kappa with the kappa -> 0 limit a."""
    if kappa == 0.0:
        return a
    return np.expm1(a * kappa) / kappa


def _starred_constants(local_terms, scheme, kappa, dt):
    """Extremal coefficients over the run, per the simplified bounds."""
    a0s = b0s = None
    hmin = np.inf
    a_s = b_s = 0.0
    vmax = -np.inf
    beta_max = 0.0
    for lt in local_terms:
        alpha, beta = scheme.coeffs(lt.n)
        if lt.h < hmin:
            hmin, a0s, b0s = lt.h, abs(alpha[0]), abs(beta[0])
        beta_max = max(beta_max, float(np.max(np.abs(beta))))
        for ell in range(1, len(alpha)):
            v = abs(alpha[ell]) + abs(beta[ell]) * kappa * dt
            if v > vmax:
                vmax, a_s, b_s = v, abs(alpha[ell]), abs(beta[ell])
    return a0s, b0s, a_s, b_s, beta_max


def simplified_global_bounds(local_terms, scheme, kappa, dt, mode,
                             kind="galerkin", epsilon=0.5) -> BoundReport:
    """Closed-form global bounds built from extremal coefficients.

    mode in {aposteriori, timestep_independent, residual_form}; each mode
    checks its own hypotheses (epsilon in (0,1), dt cap, k|alpha*| =
    |alpha_0*| for timestep_independent, beta_l = 0 for l >= 1 for
    residual_form) and raises BoundHypothesisError naming the failure.
    """
    if not 0.0 < epsilon < 1.0:
        raise BoundHypothesisError(f"epsilon must lie in (0,1), got {epsilon}")
    k = scheme.k
    nsteps = len(local_terms)
    a0s, b0s, a_s, b_s, beta_max = _starred_constants(
        local_terms, scheme, kappa, dt)
    if kappa * b0s > 0.0 and dt > a0s * (1.0 - epsilon) / (kappa * b0s):
        raise BoundHypothesisError(
            f"dt = {dt} exceeds |alpha_0*|(1-eps)/(kappa |beta_0*|) = "
            f"{a0s * (1.0 - epsilon) / (kappa * b0s):.3e}")

    # exponent coefficient eps^-1 (|beta*|/|alpha*| + |beta_0*|/|alpha_0*|)
    c = (b_s / a_s if a_s > 0 else 0.0) + b0s / a0s
    c /= epsilon

    if kind == "galerkin":
        # max over steps of the l=0 orthogonal-projection term
        max_term = max(lt.terms[0] for lt in local_terms)
    else:
        # max over steps and l <= l*_eps of the oblique-projection terms,
        # where l*_eps tracks the arg-max of gamma1_l * term_l per step
        l_eps = max(int(np.argmax(lt.gamma1 * lt.terms))
                    for lt in local_terms)
        max_term = max(float(np.max(lt.terms[:l_eps + 1]))
                       for lt in local_terms)
    max_res = max(lt.residual_norm for lt in local_terms)

    tn = dt * np.arange(nsteps + 1)
    if mode == "timestep_independent":
        if abs(k * a_s - a0s) > 1e-12:
            raise BoundHypothesisError(
                f"k|alpha*| = {k * a_s} != |alpha_0*| = {a0s}")
        bounds = ((k + 1) * beta_max / (k * b_s + b0s)
                  * _expm1_div(tn * c, kappa) * max_term)
    elif mode in ("aposteriori", "residual_form"):
        denom = (k * a_s - a0s) + (k * b_s + b0s) * kappa * dt
        growth = (k * a_s / a0s) ** np.arange(nsteps + 1)
        if denom == 0.0:
            if kappa > 0.0:
                raise BoundHypothesisError(
                    "degenerate amplification denominator")
            frac = tn * c / ((k * b_s + b0s) * dt)
        else:
            frac = np.expm1(tn * kappa * c) / denom
        if mode == "aposteriori":
            bounds = (k + 1) * beta_max * dt * growth * frac * max_term
        else:
            for lt in local_terms:
                if np.any(scheme.coeffs(lt.n)[1][1:] != 0.0):
                    raise BoundHypothesisError(
                        "residual_form requires beta_l = 0 for l >= 1 "
                        f"(violated at n={lt.n})")
            bounds = (k + 1) * growth * frac * max_res
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _report(local_terms, kind, bounds)


def auxiliary_increment_bound(model, lspg_traj, sub, dt, kappa,
                              opts: SolverOptions = SolverOptions()
                              ) -> AuxiliaryIncrementReport:
    """Single-step projection errors mu^j along the LSPG backward-Euler
    trajectory, via the full-space auxiliary step
    xbar^j = dt f(x0 + xbar^j) + Phi y^{j-1}, solved by ``fom.newton_solve``
    under opts; a step it cannot solve raises StepSolveError with
    time_index j."""
    if kappa * dt >= 1.0:
        raise BoundHypothesisError("auxiliary bound needs dt < 1/kappa")
    phi = sub.basis
    x0 = sub.reference
    h = 1.0 - kappa * dt
    n = len(lspg_traj.states) - 1
    mu = np.zeros(n + 1)
    mu_bar = np.zeros(n + 1)
    f_norms = np.zeros(n + 1)
    degenerate = np.zeros(n + 1, dtype=bool)
    newton = fom.NewtonMatrix()
    for j in range(1, n + 1):
        anchor = phi @ lspg_traj.states[j - 1]
        tj = j * dt
        try:
            # warm start at the anchor
            xbar = fom.newton_solve(
                lambda x: x - dt * model.velocity(x0 + x, tj) - anchor,
                lambda x: (1.0, dt, model.jacobian(x0 + x, tj)),
                anchor, opts, newton)
        except fom.StepSolveError as err:
            err.time_index = j
            raise
        d_rom = phi @ (lspg_traj.states[j] - lspg_traj.states[j - 1])
        d_aux = xbar - anchor
        mu[j] = np.linalg.norm(d_rom - d_aux)
        f_norms[j] = np.linalg.norm(model.velocity(x0 + xbar, tj))
        nd = np.linalg.norm(d_aux)
        if nd < 1e-14:
            # zero auxiliary increment: ratio undefined, report 0 + flag
            mu_bar[j] = 0.0
            degenerate[j] = True
        else:
            mu_bar[j] = mu[j] / nd

    # B^m = (B^{m-1} + c^m)/h sums c^{m-j}/h^{j+1} over j < m
    b_inc = np.zeros(n + 1)
    b_rel = np.zeros(n + 1)
    for m in range(1, n + 1):
        b_inc[m] = (b_inc[m - 1] + (1.0 + kappa * dt) * mu[m]) / h
        b_rel[m] = (b_rel[m - 1]
                    + dt * (1.0 + kappa * dt) * mu_bar[m] * f_norms[m]) / h
    return AuxiliaryIncrementReport(
        mu=mu, mu_bar=mu_bar, f_norms=f_norms,
        bound_increment_form=b_inc, bound_relative_form=b_rel,
        degenerate=degenerate)


def _rk_dinv(tableau, kappa, dt, scale=1.0):
    """D^{-1} for D with d_ij = delta_ij - kappa dt |a_ij| s_j (s_j =
    ||P_j||_2 in the a priori LSPG bound, 1 otherwise); checked to be
    inverse-nonnegative via the strict row-sum condition."""
    absa = np.abs(tableau.a) * scale
    row_sum = kappa * dt * np.max(np.sum(absa, axis=1))
    if row_sum >= 1.0:
        raise BoundHypothesisError(
            f"kappa dt max_i sum_j |a_ij| s_j = {row_sum:.3e} >= 1; "
            "D may not be inverse-nonnegative")
    dinv = np.linalg.inv(np.eye(tableau.s) - kappa * dt * absa)
    if np.min(dinv) < -1e-12:
        raise BoundHypothesisError("D^{-1} has negative entries")
    return dinv


def _stages(traj):
    if traj.stages is None:
        raise ValueError("Runge-Kutta bounds need a trajectory with stage "
                         "records (from a Runge-Kutta integrator)")
    return traj.stages


def _run_points(traj, sub, tableau, n):
    """The full-space (x_i, t_i) of step n's stages, where the run traj
    evaluated f: an LSPG ROM forms them at stage values Phi y_i, a Galerkin
    ROM in reduced coordinates."""
    base, ws, dt = traj.states[n - 1], _stages(traj)[n - 1], traj.dt
    if traj.kind == "lspg":
        base, ws = reconstruct(sub, base), [sub.basis @ y for y in ws]
    points = fom.rk_stage_points(base, (n - 1) * dt, tableau, dt, ws)
    return [(reconstruct(sub, y), t) for y, t in points] \
        if traj.kind == "galerkin" else points


def _rk_bound(rom, kind, tableau, kappa, model, sub, W,
              fom_traj=None) -> BoundReport:
    """The Runge-Kutta bound B^n = a^n B^{n-1} + dt sum_i w_i^n term_i^n
    along a ROM run, with w^n = |b|^T D^{-1}, a^n = 1 + kappa dt sum_i w_i^n
    and term_i^n = ||(I - P_i^n) f(x_i^n, t_i^n)||.

    The stage points x_i^n are the ROM's (a posteriori) or, given fom_traj,
    the FOM's (a priori).  P_i^n is Phi Phi^T for Galerkin and for LSPG the
    oblique projector built at the ROM's stage i either way; a priori,
    ||P_j^n||_2 scales column j of D.  A coupled LSPG ROM (fully implicit
    tableau) stops at Psi_i^T r_i = g_i = sum_{k!=i} dt a_ki (J_k Phi)^T W^T W
    r_k, r_k = Phi y_k - f(x_k); term_i adds ||(Psi_i^T Phi)^{-1} g_i||.
    """
    _check_kind(rom, kind, W)
    apriori = fom_traj is not None
    coupled = kind == "lspg" and classify(tableau) == "fully_implicit"
    if apriori and coupled:
        raise BoundHypothesisError(
            "a priori LSPG RK bound implemented for explicit/DIRK")
    dt, phi, s = rom.dt, sub.basis, tableau.s
    nsteps = len(rom.states) - 1
    svals, term0, coeff, bound = np.zeros((4, nsteps + 1))
    newton = fom.NewtonMatrix()
    for n in range(1, nsteps + 1):
        rom_points = _run_points(rom, sub, tableau, n) \
            if kind == "lspg" or not apriori else None
        points = _run_points(fom_traj, sub, tableau, n) if apriori \
            else rom_points
        fvals = [model.velocity(x, t) for x, t in points]
        jacs = [model.jacobian(x, t) for x, t in rom_points] \
            if kind == "lspg" else [None] * s
        projs = [_step_projector(kind, sub, lambda: W.gram_mat(
            newton.times(1.0, dt * tableau.a[i, i], jf, phi)))
            for i, jf in enumerate(jacs)]
        terms = [np.linalg.norm(proj.deflate(fv))
                 for proj, fv in zip(projs, fvals)]
        if coupled:
            # (J_k Phi)^T W^T W r_k of each stage k
            v = [phi.T @ (jf.T @ W.gram_mat(phi @ y - fv))
                 for jf, y, fv in zip(jacs, rom.stages[n - 1], fvals)]
            for i, proj in enumerate(projs):
                g = sum(tableau.a[k, i] * v[k] for k in range(s) if k != i)
                terms[i] += dt * np.linalg.norm(np.linalg.solve(proj.m, g))
        scale = np.array([proj.norm() for proj in projs]) if apriori else 1.0
        wstage = np.abs(tableau.b) @ _rk_dinv(tableau, kappa, dt, scale)
        svals[n] = sum(w_i * term for w_i, term in zip(wstage, terms))
        term0[n] = terms[0]
        coeff[n] = dt * float(np.sum(wstage))
        bound[n] = (1.0 + kappa * dt * float(np.sum(wstage))) * bound[n - 1] \
            + dt * svals[n]
    return BoundReport(kind=kind, per_step_local=dt * svals,
                       per_step_bound=bound, term_projection=term0,
                       coeff=coeff)


def rk_aposteriori_bound(traj, kind, tableau, kappa, model, sub,
                         W=None) -> BoundReport:
    """Global a posteriori bound for Runge-Kutta schemes.

    Stage values are read from the trajectory's stage records, so traj must
    come from a Runge-Kutta integrator.  Galerkin uses the orthogonal
    projector on every stage; LSPG uses the per-stage oblique projector,
    plus the cross-stage term of its coupled minimization under a fully
    implicit tableau.
    """
    return _rk_bound(traj, kind, tableau, kappa, model, sub, W)


def apriori_bounds_lmm_rk(fom_traj, rom_traj, kind, model, sub, scheme,
                          kappa, W=None, mode="global",
                          epsilon=0.5) -> BoundReport:
    """A priori bounds: projection terms evaluated at FOM states.

    For LSPG the projector (and its norm, which enters the h constants) is
    still built from the ROM solution.  mode 'global' runs the recursion;
    'timestep_independent' evaluates the backward-Euler style closed form
    2 (exp(t^n kappa / eps ...) - 1) / kappa * max term.  A Runge-Kutta
    scheme takes f at the FOM's stage points and, for LSPG
    (explicit/DIRK), scales D by the stage projectors' norms.
    """
    dt = fom_traj.dt
    if abs(dt - rom_traj.dt) > 1e-14:
        raise ValueError("a priori bounds need FOM and ROM at the same dt")
    if isinstance(scheme, ButcherTableau):
        return _rk_bound(rom_traj, kind, scheme, kappa, model, sub, W,
                         fom_traj=fom_traj)
    local_terms = _lmm_local_terms(rom_traj, kind, model, sub, scheme, kappa,
                                   W, f_states=fom_traj.states,
                                   proj_in_h=True)
    rep = _propagate(local_terms, kind)
    if mode == "global":
        return rep
    if mode == "timestep_independent":
        # backward-Euler style closed form
        if scheme.k != 1:
            raise BoundHypothesisError(
                "timestep_independent a priori form implemented for "
                "single-step schemes only")
        p_star = max(lt.proj_norm for lt in local_terms)  # 1 for Galerkin
        max_term = max(lt.terms[0] for lt in local_terms)
        tn = dt * np.arange(len(local_terms) + 1)
        rep.per_step_bound = 2.0 * _expm1_div(tn * p_star / epsilon, kappa) \
            / p_star * max_term
        return rep
    raise ValueError(f"unknown a priori mode {mode!r}")


def write_bound_report_csv(report: BoundReport, path):
    write_csv(path, ["n", "term_projection", "coeff", "local_bound",
                     "global_bound"],
              ((n, report.term_projection[n], report.coeff[n],
                report.per_step_local[n], report.per_step_bound[n])
               for n in range(1, len(report.per_step_bound))))

"""Error-bound machinery against independent oracles: explicit path-sum
enumeration for the global recursion, hand-derived extremal constants for
the closed-form bounds, and a dense re-implementation of the auxiliary
full-space step."""

import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from morrow import benchmodels, bounds, fom, galerkin, lspg
from morrow.bounds import BoundHypothesisError, LocalStepTerms
from morrow.core import (Model, SolverOptions, Trajectory, TrialSubspace,
                         dense, reconstruct)
from morrow.schemes import ButcherTableau, make_butcher, make_lmm

from conftest import (counting, gauss2_tableau, linear_model,
                      logging_velocity, random_subspace)


# ------------------------------------------------------------- lipschitz

def test_lipschitz_linear_is_matrix_norm():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    m = linear_model(a)
    samples = [rng.standard_normal(6) for _ in range(5)]
    kappa = bounds.estimate_lipschitz(m, samples, [0.0])
    assert abs(kappa - np.linalg.norm(a, 2)) < 1e-6 * np.linalg.norm(a, 2)


def test_lipschitz_constant_velocity_is_zero():
    m = Model(dim=2, velocity=lambda x, t: np.array([1.0, -1.0]),
              jacobian=lambda x, t: np.zeros((2, 2)),
              initial_state=np.zeros(2))
    kappa = bounds.estimate_lipschitz(m, [np.zeros(2), np.ones(2)], [0.0])
    assert kappa == 0.0


def test_lipschitz_scalar_square_dense_scan():
    m = Model(dim=1, velocity=lambda x, t: x**2,
              jacobian=lambda x, t: np.array([[2.0 * x[0]]]),
              initial_state=np.zeros(1))
    grid = [np.array([v]) for v in np.linspace(0.0, 2.0, 101)]
    kappa = bounds.estimate_lipschitz(m, grid, [0.0])
    assert abs(kappa - 4.0) < 1e-9  # sup |f'| on [0, 2]


def test_lipschitz_takes_one_norm_for_a_linear_model(monkeypatch):
    m = benchmodels.gradient_flow_spd(benchmodels.BenchmarkSpec(
        name="g", spectrum=tuple(np.geomspace(0.1, 50.0, 24)), seed=3))
    rng = np.random.default_rng(0)
    x0 = m.initial_state
    samples = [x0] + [x0 + 0.1 * rng.standard_normal(m.dim)
                      for _ in range(4)]
    # reference: a dense 2-norm at every sample, and the pairwise quotients
    want = max([float(np.linalg.norm(m.jacobian(x, 0.0), 2))
                for x in samples]
               + [float(np.linalg.norm(m.velocity(x, 0.0)
                                       - m.velocity(y, 0.0))
                        / np.linalg.norm(x - y))
                  for i, x in enumerate(samples) for y in samples[i + 1:]])
    calls = counting(monkeypatch, bounds, "norm2")
    assert bounds.estimate_lipschitz(m, samples, [0.0]) == want
    assert len(calls) == 1


def test_jacobian_norm_is_retaken_when_one_buffer_is_refilled():
    # the model hands back one array refilled in place, as is or as a
    # read-only view: equal identity, different entries, so each state's J
    # must be checked on its own
    buf = np.zeros((2, 2))
    view = buf.view()
    view.setflags(write=False)
    states = [np.array([v, 0.0]) for v in (1.0, 2.0, 1.0)]
    for out in (buf, view):
        def jacobian(x, t, out=out):
            buf[:] = np.diag(3.0 * x**2)
            return out

        m = Model(dim=2, velocity=lambda x, t: x**3, jacobian=jacobian,
                  initial_state=np.zeros(2))
        assert bounds.max_jacobian_norm(m, states, [0.0] * 3) == 12.0


@pytest.mark.parametrize("jac_kind", ["sparse", "dense"])
@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_max_jacobian_norm_certifies_the_states_below_the_peak(
        monkeypatch, bc, jac_kind):
    # ||J|| moves monotonically along a diffusing step, so only the end
    # states get a 2-norm; every other state is certified below the peak
    m = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="b", n=64, viscosity=0.01, bc=bc, initial="step"))
    if jac_kind == "dense":
        sparse_jac = m.jacobian
        m = Model(dim=m.dim, velocity=m.velocity,
                  jacobian=lambda x, t: sparse_jac(x, t).toarray(),
                  initial_state=m.initial_state)
    traj = fom.integrate(m, make_lmm("bdf2"), 5e-4, 0.02)
    want = max(np.linalg.norm(dense(m.jacobian(x, 0.0)), 2)
               for x in traj.states)
    calls = counting(monkeypatch, bounds, "norm2")
    got = bounds.max_jacobian_norm(m, traj.states, traj.times)
    assert abs(got - want) <= 1e-13 * want
    assert len(calls) <= 2
    # any order finds the same peak
    perm = np.random.default_rng(0).permutation(len(traj.states))
    assert bounds.max_jacobian_norm(m, traj.states[perm],
                                    traj.times[perm]) == got


# ---------------------------------------------------------- local terms

def small_linear_setup(tight=True):
    rng = np.random.default_rng(1)
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    a = -q @ np.diag(np.linspace(0.5, 3.0, 8)) @ q.T
    m = linear_model(a, x_init=np.cos(np.arange(8.0)))
    kappa = float(np.linalg.norm(a, 2))
    opts = SolverOptions(newton_abs_tol=1e-14, newton_rel_tol=1e-14,
                         max_iters=100)
    return m, kappa, opts


def test_full_basis_gives_zero_bound():
    m, kappa, opts = small_linear_setup()
    sub = TrialSubspace(basis=np.eye(8), reference=np.zeros(8))
    dt = 0.05 / kappa
    traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                       dt, 5 * dt, opts)
    lt = bounds.local_aposteriori_lmm(traj, "galerkin", m, sub,
                                      make_lmm("backward_euler"), kappa)
    rep = bounds.global_aposteriori_lmm(lt)
    assert rep.global_bound < 1e-12


def test_kappa_zero_backward_euler_coefficients():
    # constant velocity: h = |alpha_0|, gamma1 = dt, gamma2 = 1
    m = Model(dim=3, velocity=lambda x, t: np.array([1.0, 2.0, 0.0]),
              jacobian=lambda x, t: np.zeros((3, 3)),
              initial_state=np.zeros(3))
    sub = random_subspace(3, 1, seed=2)
    traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                       0.1, 0.5)
    lt = bounds.local_aposteriori_lmm(traj, "galerkin", m, sub,
                                      make_lmm("backward_euler"), 0.0)
    for step in lt:
        assert abs(step.h - 1.0) < 1e-15
        assert abs(step.gamma1[0] - 0.1) < 1e-15
        assert abs(step.gamma2[0] - 1.0) < 1e-15


def test_time_step_condition_enforced():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=3, reference=m.initial_state)
    dt = 1.5 / kappa  # violates dt < 1/kappa for backward Euler
    traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                       dt, 3 * dt, opts)
    with pytest.raises(BoundHypothesisError, match="time-step"):
        bounds.local_aposteriori_lmm(traj, "galerkin", m, sub,
                                     make_lmm("backward_euler"), kappa)


def test_oblique_projection_residual_identity():
    # for beta_l = 0 (l >= 1): |beta_0| dt ||(I - P^n) f|| = ||rbar^n||
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=4, reference=m.initial_state)
    W = lspg.scaled_identity(8)
    for name in ("backward_euler", "bdf2"):
        sch = make_lmm(name)
        dt = 0.1 / kappa
        traj, _ = lspg.integrate_lspg(m, sub, W, sch, dt, 6 * dt, opts)
        lt = bounds.local_aposteriori_lmm(traj, "lspg", m, sub, sch, kappa, W)
        for step in lt:
            alpha, beta = sch.coeffs(step.n)
            lhs = abs(beta[0]) * dt * step.terms[0]
            assert abs(lhs - step.residual_norm) < 1e-9


@pytest.mark.parametrize("kind", ["galerkin", "lspg"])
def test_local_terms_evaluate_f_once_per_state(monkeypatch, kind):
    # BDF2 reads f at up to three states per step; each state's f is
    # evaluated once, and lmm_residual makes its own calls
    m = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="burgers", n=24, viscosity=0.05))
    sch, dt = make_lmm("bdf2"), 1e-3
    x = fom.integrate(m, sch, dt, 10 * dt).states
    sub = TrialSubspace(basis=np.linalg.qr((x[1:] - x[0]).T)[0][:, :3],
                        reference=x[0])
    W = lspg.scaled_identity(m.dim)
    traj = galerkin.integrate_galerkin(m, sub, sch, dt, 10 * dt) \
        if kind == "galerkin" else lspg.integrate_lspg(m, sub, W, sch, dt,
                                                        10 * dt)[0]
    model, calls = logging_velocity(m)
    in_residual = []
    residual = fom.lmm_residual

    def counted(*args):
        before = len(calls)
        out = residual(*args)
        in_residual.append(len(calls) - before)
        return out

    monkeypatch.setattr(fom, "lmm_residual", counted)
    lt = bounds.local_aposteriori_lmm(traj, kind, model, sub, sch, 1.0, W)
    assert len(in_residual) == len(lt) == 10
    assert len(calls) - sum(in_residual) == len(traj.states)


def test_linear_lspg_bound_forms_one_test_basis_per_coefficient_pair(
        monkeypatch):
    # BDF2 takes one backward-Euler step first: two (c0, c1) pairs and a
    # constant Jacobian, so (c0 I - c1 J) Phi is formed twice, not per step
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=5, reference=m.initial_state)
    W = lspg.scaled_identity(8)
    sch, dt = make_lmm("bdf2"), 0.1 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, W, sch, dt, 10 * dt, opts)
    shifted = counting(monkeypatch, fom, "shifted")
    lt = bounds.local_aposteriori_lmm(traj, "lspg", m, sub, sch, kappa, W)
    assert len(lt) == 10 and len(shifted) == 2


def test_factored_projector_matches_dense_oracle():
    # P = Phi (Psi^T Phi)^{-1} Psi^T formed densely, Psi not orthogonal
    rng = np.random.default_rng(7)
    for n, p in ((12, 3), (40, 5)):
        sub = random_subspace(n, p, seed=n)
        psi = sub.basis + 0.7 * rng.standard_normal((n, p))
        dense_p = sub.basis @ np.linalg.solve(psi.T @ sub.basis, psi.T)
        proj = bounds._ObliqueProjector(sub, psi)
        for _ in range(3):
            v = rng.standard_normal(n)
            want = v - dense_p @ v
            assert np.linalg.norm(proj.deflate(v) - want) \
                <= 1e-12 * np.linalg.norm(want)
        assert abs(proj.norm() - np.linalg.norm(dense_p, 2)) \
            <= 1e-12 * np.linalg.norm(dense_p, 2)


def test_factored_projector_rejects_singular_psi_phi():
    sub = random_subspace(10, 3, seed=2)
    psi = np.random.default_rng(3).standard_normal((10, 3))
    psi -= sub.basis @ (sub.basis.T @ psi)  # Psi^T Phi = 0 up to roundoff
    psi[:, 0] += sub.basis[:, 0]            # rank 1 of 3
    with pytest.raises(BoundHypothesisError, match="singular"):
        bounds._ObliqueProjector(sub, psi)


# --------------------------------------------------------- global bound

def enumerate_paths(local_terms, n):
    """Oracle: explicit sum over coefficient tuples.

    Each path is a tuple (eta_1, ..., eta_q) of back-steps from n down to
    some step m >= 1, contributing (prod of gamma2 along the way) * c^m.
    """
    by_step = {lt.n: lt for lt in local_terms}
    total = 0.0
    stack = [(n, 1.0)]
    while stack:
        idx, weight = stack.pop()
        total += weight * by_step[idx].proj_contrib
        for ell in range(1, len(by_step[idx].gamma2) + 1):
            if idx - ell >= 1:
                stack.append((idx - ell,
                              weight * by_step[idx].gamma2[ell - 1]))
    return total


def synthetic_local_terms(nsteps, k, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, nsteps + 1):
        k_eff = min(k, n)
        out.append(LocalStepTerms(
            n=n, h=1.0,
            gamma1=rng.uniform(0.1, 1.0, k_eff + 1),
            gamma2=rng.uniform(0.1, 1.0, k_eff),
            terms=rng.uniform(0.0, 2.0, k_eff + 1),
            residual_norm=0.0, proj_norm=1.0))
    return out


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recursion_equals_tuple_enumeration(k, seed):
    lt = synthetic_local_terms(6, k, seed)
    rep = bounds.global_aposteriori_lmm(lt)
    for n in range(1, 7):
        assert abs(rep.per_step_bound[n] - enumerate_paths(lt, n)) < 1e-12


def test_k1_constant_terms_geometric_series():
    c, g2 = 0.3, 0.8
    lt = [LocalStepTerms(n=n, h=1.0, gamma1=np.array([c, 0.0]),
                         gamma2=np.array([g2]),
                         terms=np.array([1.0, 1.0]),
                         residual_norm=0.0, proj_norm=1.0)
          for n in range(1, 9)]
    rep = bounds.global_aposteriori_lmm(lt)
    for n in range(1, 9):
        geometric = c * (1.0 - g2**n) / (1.0 - g2)
        assert abs(rep.per_step_bound[n] - geometric) < 1e-12


def test_zero_terms_zero_bound():
    lt = synthetic_local_terms(5, 2, 3)
    for step in lt:
        step.terms[:] = 0.0
    assert bounds.global_aposteriori_lmm(lt).global_bound == 0.0


def test_gamma_coefficients_blow_up_toward_dt_cap():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=5, reference=m.initial_state)
    cap = 1.0 / kappa
    g1_prev = 0.0
    for frac in (0.5, 0.8, 0.95, 0.99):
        dt = frac * cap
        traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                           dt, 2 * dt, opts)
        lt = bounds.local_aposteriori_lmm(traj, "galerkin", m, sub,
                                          make_lmm("backward_euler"), kappa)
        assert lt[0].gamma1[0] > g1_prev
        g1_prev = lt[0].gamma1[0]


# ----------------------------------------------------- simplified bounds

def galerkin_run_for_bounds(dt_frac=0.2, nsteps=6, scheme_name="backward_euler"):
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=6, reference=m.initial_state)
    dt = dt_frac / kappa
    sch = make_lmm(scheme_name)
    traj = galerkin.integrate_galerkin(m, sub, sch, dt, nsteps * dt, opts)
    lt = bounds.local_aposteriori_lmm(traj, "galerkin", m, sub, sch, kappa)
    return lt, sch, kappa, dt


def test_backward_euler_timestep_independent_closed_form():
    lt, sch, kappa, dt = galerkin_run_for_bounds()
    rep = bounds.simplified_global_bounds(lt, sch, kappa, dt,
                                          "timestep_independent",
                                          epsilon=0.5)
    max_term = max(step.terms[0] for step in lt)
    for n in range(1, len(lt) + 1):
        expected = 2.0 * math.expm1(n * dt * kappa / 0.5) / kappa * max_term
        assert abs(rep.per_step_bound[n] - expected) < 1e-10 * expected


def test_kappa_zero_limit_finite():
    lt, sch, _, dt = galerkin_run_for_bounds()
    rep = bounds.simplified_global_bounds(lt, sch, 0.0, dt,
                                          "timestep_independent")
    max_term = max(step.terms[0] for step in lt)
    n = len(lt)
    # expm1(t k / eps)/k -> t/eps as k -> 0
    assert abs(rep.per_step_bound[n]
               - 2.0 * (n * dt / 0.5) * max_term) < 1e-12


def test_bdf2_rejects_timestep_independent():
    lt, sch, kappa, dt = galerkin_run_for_bounds(scheme_name="bdf2")
    with pytest.raises(BoundHypothesisError, match="alpha"):
        bounds.simplified_global_bounds(lt, sch, kappa, dt,
                                        "timestep_independent")


def test_residual_form_bdf2_hand_constants():
    # hand-derived extremal constants for the BDF2 family with backward-
    # Euler startup: |alpha_0*| = |beta_0*| = 1 (startup step has the
    # smallest h), |alpha*| = 4/3 with |beta*| = 0, k = 2
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=7, reference=m.initial_state)
    W = lspg.scaled_identity(8)
    sch = make_lmm("bdf2")
    dt = 0.05 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, W, sch, dt, 3 * dt, opts)
    lt = bounds.local_aposteriori_lmm(traj, "lspg", m, sub, sch, kappa, W)
    rep = bounds.simplified_global_bounds(lt, sch, kappa, dt,
                                          "residual_form", kind="lspg",
                                          epsilon=0.5)
    max_res = max(step.residual_norm for step in lt)
    n = 3
    c = (0.0 / (4.0 / 3.0) + 1.0 / 1.0) / 0.5
    denom = (2 * 4.0 / 3.0 - 1.0) + (0.0 + 1.0) * kappa * dt
    upsilon = 3.0 * (2 * (4.0 / 3.0) / 1.0) ** n \
        * math.expm1(n * dt * kappa * c) / denom
    assert abs(rep.per_step_bound[n] - upsilon * max_res) \
        < 1e-10 * abs(upsilon * max_res)


def test_epsilon_validation():
    lt, sch, kappa, dt = galerkin_run_for_bounds()
    with pytest.raises(BoundHypothesisError):
        bounds.simplified_global_bounds(lt, sch, kappa, dt, "aposteriori",
                                        epsilon=1.0)


def test_dt_cap_validation():
    lt, sch, kappa, dt = galerkin_run_for_bounds(dt_frac=0.8)
    # eps = 0.5 caps dt at 0.5/kappa; 0.8/kappa violates it
    with pytest.raises(BoundHypothesisError, match="dt"):
        bounds.simplified_global_bounds(lt, sch, kappa, dt, "aposteriori",
                                        epsilon=0.5)


# ------------------------------------------------ backward Euler closed sum

def test_backward_euler_recursion_matches_closed_sum():
    m, kappa, opts = small_linear_setup()
    W = lspg.scaled_identity(8)
    sub = random_subspace(8, 3, seed=8, reference=m.initial_state)
    dt = 0.3 / kappa
    sch = make_lmm("backward_euler")
    gal = galerkin.integrate_galerkin(m, sub, sch, dt, 12 * dt, opts)
    lsp, _ = lspg.integrate_lspg(m, sub, W, sch, dt, 12 * dt, opts)
    h = 1.0 - kappa * dt
    for kind, traj in (("galerkin", gal), ("lspg", lsp)):
        lt = bounds.local_aposteriori_lmm(traj, kind, m, sub, sch, kappa, W)
        rep = bounds.global_aposteriori_lmm(lt, kind)
        terms = [t.terms[0] for t in lt]
        for n in range(1, 13):
            # O(n^2) closed sum: B^n = dt sum_j h^{-(j+1)} term^{n-j}
            closed = dt * sum(terms[n - j - 1] / h ** (j + 1)
                              for j in range(n))
            assert abs(rep.per_step_bound[n] - closed) <= 1e-12 * closed


def test_backward_euler_single_step_form():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=9, reference=m.initial_state)
    dt = 0.1 / kappa
    traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                       dt, dt, opts)
    lt = bounds.local_aposteriori_lmm(traj, "galerkin", m, sub,
                                      make_lmm("backward_euler"), kappa)
    rep = bounds.global_aposteriori_lmm(lt)
    h = 1.0 - kappa * dt
    assert abs(rep.per_step_bound[1] - dt / h * lt[0].terms[0]) < 1e-14


def test_backward_euler_dt_cap():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=10, reference=m.initial_state)
    dt = 1.2 / kappa
    traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                       dt, dt, opts)
    with pytest.raises(BoundHypothesisError, match="time-step condition"):
        bounds.local_aposteriori_lmm(traj, "galerkin", m, sub,
                                     make_lmm("backward_euler"), kappa)


# -------------------------------------------------------------- RK bounds

def be_tableau():
    return make_butcher("backward_euler")


def test_rk_s1_reduces_to_lmm_backward_euler():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=11, reference=m.initial_state)
    dt = 0.1 / kappa
    # the s=1 stiffly accurate tableau takes the same steps as the LMM form
    traj_rk = galerkin.integrate_galerkin(m, sub, be_tableau(), dt, 6 * dt,
                                          opts)
    traj_lmm = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                           dt, 6 * dt, opts)
    for a, b in zip(traj_rk.states, traj_lmm.states):
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) < 1e-10
    rep_rk = bounds.rk_aposteriori_bound(traj_rk, "galerkin", be_tableau(),
                                         kappa, m, sub)
    rep_be = bounds.global_aposteriori_lmm(bounds.local_aposteriori_lmm(
        traj_lmm, "galerkin", m, sub, make_lmm("backward_euler"), kappa))
    assert np.max(np.abs(rep_rk.per_step_bound - rep_be.per_step_bound)) \
        < 1e-8


def test_rk_explicit_full_basis_zero():
    m, kappa, opts = small_linear_setup()
    sub = TrialSubspace(basis=np.eye(8), reference=np.zeros(8))
    dt = 0.05 / kappa
    traj = galerkin.integrate_galerkin(m, sub, make_butcher("rk4"), dt,
                                       4 * dt, opts)
    rep = bounds.rk_aposteriori_bound(traj, "galerkin", make_butcher("rk4"),
                                      kappa, m, sub)
    assert rep.global_bound < 1e-12


def test_rk_dinv_nonnegative_dense_oracle():
    tab = ButcherTableau(s=2, a=np.array([[0.25, 0.0], [0.25, 0.25]]),
                         b=np.array([0.5, 0.5]), c=np.array([0.25, 0.5]),
                         name="t")
    kappa, dt = 1.0, 1.0  # kappa dt max row sum = 0.5
    dinv = bounds._rk_dinv(tab, kappa, dt)
    dense = np.linalg.inv(np.eye(2) - kappa * dt * np.abs(tab.a))
    assert np.allclose(dinv, dense)
    assert np.min(dinv) >= 0.0


def test_rk_m_matrix_condition_enforced():
    tab = make_butcher("sdirk2")
    kappa = 10.0
    with pytest.raises(BoundHypothesisError):
        bounds._rk_dinv(tab, kappa, 1.0)


def test_rk_lspg_stagewise_bound_runs():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=12, reference=m.initial_state)
    W = lspg.scaled_identity(8)
    dt = 0.02 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, W, make_butcher("sdirk2"), dt,
                                  4 * dt, opts)
    rep = bounds.rk_aposteriori_bound(traj, "lspg", make_butcher("sdirk2"),
                                      kappa, m, sub, W=W)
    assert np.all(rep.per_step_bound[1:] > 0.0)
    assert np.all(np.diff(rep.per_step_bound) >= 0.0)


def test_rk_bounds_read_stage_records_not_solvers(monkeypatch):
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=12, reference=m.initial_state)
    W = lspg.scaled_identity(8)
    sd, gauss = make_butcher("sdirk2"), gauss2_tableau()
    dt = 0.02 / kappa
    g = galerkin.integrate_galerkin(m, sub, sd, dt, 4 * dt, opts)
    l, _ = lspg.integrate_lspg(m, sub, W, sd, dt, 4 * dt, opts)
    lg, _ = lspg.integrate_lspg(m, sub, W, gauss, dt, 4 * dt, opts)
    gg = galerkin.integrate_galerkin(m, sub, gauss, dt, 4 * dt, opts)
    ref = fom.integrate(m, sd, dt, 4 * dt, opts)
    ref_gauss = fom.integrate(m, gauss, dt, 4 * dt, opts)

    # the records are the stage values a re-solve from each state gives
    gm = galerkin.make_galerkin_model(m, sub)
    for n in range(1, 5):
        t_base = (n - 1) * dt
        stages = fom.solve_rk_step(gm, g.states[n - 1], sd, dt, opts,
                                   t_base=t_base)
        assert np.array_equal(g.stages[n - 1], stages)
        stages = fom.solve_rk_step(gm, gg.states[n - 1], gauss, dt, opts,
                                   t_base=t_base)
        assert np.array_equal(gg.stages[n - 1], stages)
        stages = fom.solve_rk_step(m, ref.states[n - 1], sd, dt, opts,
                                   t_base=t_base)
        assert np.array_equal(ref.stages[n - 1], stages)
        stages, _ = lspg.solve_lspg_rk_coupled(
            m, sub, W, reconstruct(sub, lg.states[n - 1]), t_base, gauss, dt,
            opts)
        assert np.array_equal(lg.stages[n - 1], stages)

    def forbidden(*args, **kwargs):
        raise AssertionError("bounds must not re-solve stages")

    monkeypatch.setattr(fom, "solve_rk_step", forbidden)
    monkeypatch.setattr(lspg, "solve_lspg_rk_stage", forbidden)
    monkeypatch.setattr(lspg, "solve_lspg_rk_coupled", forbidden)
    reports = {
        "galerkin_sdirk2": bounds.rk_aposteriori_bound(
            g, "galerkin", sd, kappa, m, sub),
        "lspg_sdirk2": bounds.rk_aposteriori_bound(
            l, "lspg", sd, kappa, m, sub, W),
        "lspg_gauss": bounds.rk_aposteriori_bound(
            lg, "lspg", gauss, kappa, m, sub, W),
        "galerkin_gauss": bounds.rk_aposteriori_bound(
            gg, "galerkin", gauss, kappa, m, sub),
        "apriori_galerkin": bounds.apriori_bounds_lmm_rk(
            ref, g, "galerkin", m, sub, sd, kappa),
        "apriori_lspg": bounds.apriori_bounds_lmm_rk(
            ref, l, "lspg", m, sub, sd, kappa, W=W),
        "apriori_galerkin_gauss": bounds.apriori_bounds_lmm_rk(
            ref_gauss, gg, "galerkin", m, sub, gauss, kappa),
    }
    # per-step bounds of the implementation that re-solved every stage
    resolved = {
        "galerkin_sdirk2": [0.013594633459161839, 0.027401946027487224,
                            0.041427062938362055, 0.055675201529376384],
        "lspg_sdirk2": [0.013594613523511245, 0.02740184981623918,
                        0.04142683409155966, 0.055674783645923306],
        # the coupled LSPG case with its cross-stage term, which the
        # re-solving implementation left out
        "lspg_gauss": [0.01361991573611947, 0.02745301516402222,
                       0.04150444059183209, 0.05577942679937936],
        "apriori_galerkin": [0.013523967457169031, 0.027119675570235906,
                             0.040792810630042094, 0.054549081168408925],
        "apriori_lspg": [0.01352397580258066, 0.02711969226346073,
                         0.04079283567689383, 0.0545491145781236],
        # the coupled Galerkin cases, from the stage-record bounds before
        # the a posteriori and a priori loops were merged
        "galerkin_gauss": [0.01360515972986655, 0.02742337639566768,
                           0.04145978682465126, 0.0557196202542212],
        "apriori_galerkin_gauss": [0.013534400830574785, 0.027140812615078648,
                                   0.04082493134723161, 0.05459247548029329],
    }
    for name, rep in reports.items():
        want = np.array(resolved[name])
        assert np.max(np.abs(rep.per_step_bound[1:] - want)) \
            <= 1e-12 * np.max(want), name


def test_rk_bounds_need_stage_records():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=12, reference=m.initial_state)
    sd = make_butcher("sdirk2")
    dt = 0.02 / kappa
    g = galerkin.integrate_galerkin(m, sub, sd, dt, 2 * dt, opts)
    ref = fom.integrate(m, sd, dt, 2 * dt, opts)
    bare = Trajectory(dt=g.dt, states=g.states, kind="galerkin")
    with pytest.raises(ValueError, match="stage records"):
        bounds.rk_aposteriori_bound(bare, "galerkin", sd, kappa, m, sub)
    with pytest.raises(ValueError, match="stage records"):
        bounds.apriori_bounds_lmm_rk(
            Trajectory(dt=dt, states=ref.states, kind="full"), g,
            "galerkin", m, sub, sd, kappa)


@pytest.mark.parametrize("scheme", [make_lmm("bdf2"), make_butcher("sdirk2")],
                         ids=lambda sch: sch.name)
def test_lspg_bounds_need_the_weighting(scheme):
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=12, reference=m.initial_state)
    dt = 0.02 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(8), scheme, dt,
                                  2 * dt, opts)
    with pytest.raises(ValueError, match="weighting operator"):
        if isinstance(scheme, ButcherTableau):
            bounds.rk_aposteriori_bound(traj, "lspg", scheme, kappa, m, sub)
        else:
            bounds.local_aposteriori_lmm(traj, "lspg", m, sub, scheme, kappa)


@pytest.mark.parametrize("bound,scheme", [
    ("local_aposteriori_lmm", make_lmm("bdf2")),
    ("rk_aposteriori_bound", make_butcher("sdirk2")),
    ("apriori_bounds_lmm_rk", make_lmm("bdf2")),
    ("apriori_bounds_lmm_rk", make_butcher("sdirk2"))],
    ids=lambda v: getattr(v, "name", v))
def test_bounds_reject_a_kind_their_trajectory_did_not_run_as(bound, scheme):
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=12, reference=m.initial_state)
    W = lspg.scaled_identity(8)
    dt = 0.02 / kappa
    ref = fom.integrate(m, scheme, dt, 2 * dt, opts)
    traj, _ = lspg.integrate_lspg(m, sub, W, scheme, dt, 2 * dt, opts)
    args = {"local_aposteriori_lmm": (traj, "galerkin", m, sub, scheme, kappa),
            "rk_aposteriori_bound": (traj, "galerkin", scheme, kappa, m, sub),
            "apriori_bounds_lmm_rk": (ref, traj, "galerkin", m, sub, scheme,
                                      kappa)}[bound]
    with pytest.raises(ValueError, match="galerkin bound of a run of kind"):
        getattr(bounds, bound)(*args, W=W)


@pytest.mark.parametrize("scheme", [
    make_butcher("sdirk2"), make_butcher("rk4"), make_lmm("backward_euler"),
    make_lmm("bdf2")], ids=lambda sch: sch.name)
def test_bounds_evaluate_f_where_their_runs_did(scheme):
    # every (x, t) at which a bound evaluates f is bitwise one at which its
    # run did: the ROM's a posteriori, the FOM's a priori.  A multistep
    # bound also reads f(x^0, 0), which no multistep step evaluates.
    m = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="burgers", n=64, viscosity=0.01))
    model, calls = logging_velocity(m)
    dt, T, W = 1e-3, 0.02, lspg.scaled_identity(m.dim)
    rk = isinstance(scheme, ButcherTableau)

    def evaluated():
        points = {(t, x.tobytes()) for x, t in calls if rk or t != 0.0}
        calls.clear()
        return points

    ref = fom.integrate(model, scheme, dt, T)
    ran = {"full": evaluated()}
    sub = TrialSubspace(basis=np.linalg.qr(
        (ref.states[1:] - ref.states[0]).T)[0][:, :4],
        reference=ref.states[0])
    roms = {"galerkin": galerkin.integrate_galerkin(model, sub, scheme, dt,
                                                    T)}
    ran["galerkin"] = evaluated()
    roms["lspg"] = lspg.integrate_lspg(model, sub, W, scheme, dt, T)[0]
    ran["lspg"] = evaluated()
    for kind, rom in roms.items():
        if rk:
            bounds.rk_aposteriori_bound(rom, kind, scheme, 1.0, model, sub, W)
        else:
            bounds.local_aposteriori_lmm(rom, kind, model, sub, scheme, 1.0,
                                         W)
        read = evaluated()
        assert len(read) >= 20 and read <= ran[kind], kind
        bounds.apriori_bounds_lmm_rk(ref, rom, kind, model, sub, scheme, 1.0,
                                     W)
        read = evaluated()
        assert len(read) >= 20 and read <= ran["full"], kind


def test_coupled_lspg_stage_term_covers_its_stage_residual():
    # a coupled LSPG step leaves Psi_i^T r_i equal to minus the cross-stage
    # sum, so stage 0's term, cross-stage part included, is at least the
    # ROM's own stage residual ||f(x_0) - Phi y_0||
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=12, reference=m.initial_state)
    W, tab, dt = lspg.scaled_identity(8), gauss2_tableau(), 0.02 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, W, tab, dt, 4 * dt, opts)
    rep = bounds.rk_aposteriori_bound(traj, "lspg", tab, kappa, m, sub, W)
    for n in range(1, 5):
        ws = [sub.basis @ y for y in traj.stages[n - 1]]
        x0, t0 = fom.rk_stage_points(reconstruct(sub, traj.states[n - 1]),
                                     (n - 1) * dt, tab, dt, ws)[0]
        assert rep.term_projection[n] \
            >= np.linalg.norm(m.velocity(x0, t0) - ws[0])


# -------------------------------------------------- auxiliary increments

def test_auxiliary_full_basis_zero_mu():
    m, kappa, opts = small_linear_setup()
    sub = TrialSubspace(basis=np.eye(8), reference=np.zeros(8))
    dt = 0.1 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(8),
                                  make_lmm("backward_euler"), dt, 5 * dt,
                                  opts)
    rep = bounds.auxiliary_increment_bound(m, traj, sub, dt, kappa, opts)
    assert np.max(rep.mu[1:]) < 1e-9
    assert np.max(rep.bound_increment_form) < 1e-7


def test_auxiliary_zero_velocity_degenerate_flag():
    m = Model(dim=4, velocity=lambda x, t: np.zeros(4),
              jacobian=lambda x, t: np.zeros((4, 4)),
              initial_state=np.zeros(4))
    sub = random_subspace(4, 2, seed=13)
    traj, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(4),
                                  make_lmm("backward_euler"), 0.1, 0.5)
    rep = bounds.auxiliary_increment_bound(m, traj, sub, 0.1, 0.0)
    assert np.all(rep.degenerate[1:])
    assert np.all(rep.mu_bar == 0.0)


def test_auxiliary_mu_against_dense_newton_oracle():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=14, reference=m.initial_state)
    dt = 0.1 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(8),
                                  make_lmm("backward_euler"), dt, 5 * dt,
                                  opts)
    rep = bounds.auxiliary_increment_bound(m, traj, sub, dt, kappa, opts)
    # oracle: independently coded dense Newton on
    # g(x) = x - dt f(x0 + x) - Phi y^{j-1}
    for j in range(1, 6):
        anchor = sub.basis @ np.asarray(traj.states[j - 1])
        x = anchor.copy()
        for _ in range(60):
            g = x - dt * m.velocity(sub.reference + x, j * dt) - anchor
            if np.linalg.norm(g) < 1e-14:
                break
            jac = np.eye(8) - dt * m.jacobian(sub.reference + x, j * dt)
            x = x - lu_solve(lu_factor(jac), g)
        d_rom = sub.basis @ (np.asarray(traj.states[j])
                             - np.asarray(traj.states[j - 1]))
        mu_oracle = np.linalg.norm(d_rom - (x - anchor))
        assert abs(rep.mu[j] - mu_oracle) < 1e-9


def test_auxiliary_step_newton_cannot_solve_names_its_step():
    # f = -x before t = 0.25, then x^2 + 100: at dt = 0.1 the auxiliary
    # residual x - dt f(x) is >= 7.5 in each component from step 3 on
    def velocity(x, t):
        return -x if t < 0.25 else x**2 + 100.0

    def jacobian(x, t):
        return -np.eye(2) if t < 0.25 else np.diag(2.0 * x)

    m = Model(dim=2, velocity=velocity, jacobian=jacobian,
              initial_state=np.zeros(2))
    traj = Trajectory(dt=0.1, states=np.zeros((5, 1)), kind="lspg")
    with pytest.raises(fom.StepSolveError, match="Newton failed") as err:
        bounds.auxiliary_increment_bound(m, traj, random_subspace(2, 1),
                                         0.1, 0.0)
    assert err.value.time_index == 3


def test_auxiliary_recursions_match_closed_sums():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=14, reference=m.initial_state)
    dt = 0.1 / kappa
    traj, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(8),
                                  make_lmm("backward_euler"), dt, 12 * dt,
                                  opts)
    rep = bounds.auxiliary_increment_bound(m, traj, sub, dt, kappa, opts)
    h = 1.0 - kappa * dt
    for m_ in range(1, 13):
        # O(n^2) closed sums over j < m of c^{m-j} / h^{j+1}
        inc = (1.0 + kappa * dt) * sum(
            rep.mu[m_ - j] / h ** (j + 1) for j in range(m_))
        rel = dt * (1.0 + kappa * dt) * sum(
            rep.mu_bar[m_ - j] * rep.f_norms[m_ - j] / h ** (j + 1)
            for j in range(m_))
        assert abs(rep.bound_increment_form[m_] - inc) <= 1e-12 * inc
        assert abs(rep.bound_relative_form[m_] - rel) <= 1e-12 * rel


# ---------------------------------------------------------------- a priori

def test_apriori_full_basis_zero():
    m, kappa, opts = small_linear_setup()
    sub = TrialSubspace(basis=np.eye(8), reference=np.zeros(8))
    dt = 0.05 / kappa
    sch = make_lmm("backward_euler")
    ref = fom.integrate(m, sch, dt, 5 * dt, opts)
    rom = galerkin.integrate_galerkin(m, sub, sch, dt, 5 * dt, opts)
    rep = bounds.apriori_bounds_lmm_rk(ref, rom, "galerkin", m, sub, sch,
                                       kappa)
    assert rep.global_bound < 1e-12


def test_apriori_term_is_least_squares_optimum():
    # ||(I - Phi Phi^T) f|| == min_z ||Phi z - f||
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=16, reference=m.initial_state)
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = rng.standard_normal(8)
        z, *_ = np.linalg.lstsq(sub.basis, f, rcond=None)
        direct = np.linalg.norm(f - sub.basis @ (sub.basis.T @ f))
        assert abs(np.linalg.norm(sub.basis @ z - f) - direct) < 1e-12


def test_apriori_backward_euler_timestep_independent_hand_check():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 3, seed=18, reference=m.initial_state)
    dt = 0.1 / kappa
    sch = make_lmm("backward_euler")
    ref = fom.integrate(m, sch, dt, 3 * dt, opts)
    rom = galerkin.integrate_galerkin(m, sub, sch, dt, 3 * dt, opts)
    rep = bounds.apriori_bounds_lmm_rk(ref, rom, "galerkin", m, sub, sch,
                                       kappa, mode="timestep_independent",
                                       epsilon=0.5)
    terms = [np.linalg.norm(
        m.velocity(np.asarray(ref.states[n]), n * dt)
        - sub.basis @ (sub.basis.T @ m.velocity(np.asarray(ref.states[n]),
                                                n * dt)))
        for n in range(1, 4)]
    expected = 2.0 * math.expm1(3 * dt * kappa / 0.5) / kappa * max(terms)
    assert abs(rep.per_step_bound[3] - expected) < 1e-9 * expected


def test_apriori_rk_galerkin_runs_and_bounds_error():
    m, kappa, opts = small_linear_setup()
    sub = random_subspace(8, 4, seed=19, reference=m.initial_state)
    dt = 0.05 / kappa
    tab = be_tableau()
    ref = fom.integrate(m, tab, dt, 5 * dt, opts)
    rom = galerkin.integrate_galerkin(m, sub, tab, dt, 5 * dt, opts)
    rep = bounds.apriori_bounds_lmm_rk(ref, rom, "galerkin", m, sub, tab,
                                       kappa)
    for n in range(1, 6):
        err = np.linalg.norm(np.asarray(ref.states[n])
                             - reconstruct(sub, rom.states[n]))
        assert err <= rep.per_step_bound[n] * (1.0 + 1e-9)


# --------------------------------------------------------------- reports

def test_bound_report_csv(tmp_path):
    lt = synthetic_local_terms(4, 1, 20)
    rep = bounds.global_aposteriori_lmm(lt)
    path = tmp_path / "rep.csv"
    bounds.write_bound_report_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,term_projection,coeff,local_bound,global_bound"
    assert len(lines) == 5
    # global bound dominates each gamma1-scaled projection term
    for step, line in zip(lt, lines[1:]):
        fields = line.split(",")
        assert float(fields[4]) >= float(fields[1]) * float(fields[2]) - 1e-12

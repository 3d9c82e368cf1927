import numpy as np

from morrow import benchmodels, fom, galerkin
from morrow.core import SolverOptions, TrialSubspace, reconstruct
from morrow.schemes import make_butcher, make_lmm

from conftest import linear_model, random_subspace


def burgers_small():
    return benchmodels.burgers1d(
        benchmodels.BenchmarkSpec(name="burgers", n=32, viscosity=0.02))


def test_reduced_velocity_is_projected_velocity():
    m = burgers_small()
    sub = random_subspace(32, 5, seed=1, reference=m.initial_state)
    gm = galerkin.make_galerkin_model(m, sub)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.standard_normal(5)
        t = rng.uniform(0, 1)
        lhs = sub.basis @ gm.velocity(y, t)
        # continuous-optimality: lifted reduced velocity is the orthogonal
        # projection of the full velocity onto range(Phi)
        full = m.velocity(reconstruct(sub, y), t)
        assert np.allclose(lhs, sub.basis @ (sub.basis.T @ full), atol=1e-12)


def test_reduced_jacobian_consistent():
    m = burgers_small()
    sub = random_subspace(32, 5, seed=3, reference=m.initial_state)
    gm = galerkin.make_galerkin_model(m, sub)
    y = np.random.default_rng(4).standard_normal(5)
    expected = sub.basis.T @ m.jacobian(reconstruct(sub, y), 0.2) @ sub.basis
    assert np.allclose(gm.jacobian(y, 0.2), expected)


def test_commutativity_lmm_random_draws():
    # reduced discrete residual == Phi^T (full discrete residual) at the
    # lifted point, for every scheme and random history
    m = burgers_small()
    sub = random_subspace(32, 6, seed=5, reference=m.initial_state)
    gm = galerkin.make_galerkin_model(m, sub)
    rng = np.random.default_rng(6)
    for name in ("backward_euler", "forward_euler", "bdf2"):
        sch = make_lmm(name)
        for n in (1, 3):
            k_eff = len(sch.coeffs(n)[0]) - 1
            for _ in range(10):
                w = rng.standard_normal(6)
                hist_red = [rng.standard_normal(6) for _ in range(k_eff)]
                ctx_red = fom.LmmStepContext(
                    history=tuple(hist_red), n=n, dt=0.01, scheme=sch)
                ctx_full = fom.LmmStepContext(
                    history=tuple(reconstruct(sub, h) for h in hist_red),
                    n=n, dt=0.01, scheme=sch)
                lhs = fom.lmm_residual(gm, ctx_red, w)
                rhs = sub.basis.T @ fom.lmm_residual(
                    m, ctx_full, reconstruct(sub, w))
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_commutativity_rk_stage_residual():
    m = burgers_small()
    sub = random_subspace(32, 6, seed=7, reference=m.initial_state)
    gm = galerkin.make_galerkin_model(m, sub)
    tab = make_butcher("sdirk2")
    rng = np.random.default_rng(8)
    for _ in range(10):
        red_stages = tuple(rng.standard_normal(6) for _ in range(tab.s))
        base_red = rng.standard_normal(6)
        full_stages = tuple(sub.basis @ w for w in red_stages)
        for i in range(tab.s):
            red = fom.rk_stage_context(base_red, 0.1, tab, 0.02,
                                       red_stages[:i])
            full = fom.rk_stage_context(reconstruct(sub, base_red), 0.1, tab,
                                        0.02, full_stages[:i])
            lhs = fom.rk_residual(gm, red, red_stages[i])
            rhs = sub.basis.T @ fom.rk_residual(m, full, full_stages[i])
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_full_rank_subspace_reproduces_fom(tight_opts):
    a = np.array([[0.0, 1.0], [-4.0, -0.4]])
    m = linear_model(a, x_init=[1.0, 0.0])
    sub = TrialSubspace(basis=np.eye(2), reference=m.initial_state)
    ref = fom.integrate(m, make_lmm("backward_euler"), 0.02, 0.4, tight_opts)
    rom = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                      0.02, 0.4, tight_opts)
    for x, y in zip(ref.states, rom.states):
        assert np.linalg.norm(np.asarray(x) - reconstruct(sub, y)) < 1e-10


def test_trajectory_kind_and_initial_coords(tight_opts):
    m = burgers_small()
    sub = random_subspace(32, 4, seed=9, reference=m.initial_state)
    traj = galerkin.integrate_galerkin(m, sub, make_lmm("backward_euler"),
                                       1e-3, 1e-2, tight_opts)
    assert traj.kind == "galerkin"
    assert np.allclose(traj.states[0], 0.0)  # starts at the reference state

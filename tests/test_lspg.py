"""Weighted discrete-residual minimization: solver behavior, stationarity,
weighting-operator algebra, and the Galerkin equivalence corollaries."""

from dataclasses import replace

import numpy as np
import pytest

from morrow import benchmodels, fom, galerkin, hyperreduction, lspg
from morrow.core import SolverOptions, TrialSubspace, reconstruct
from morrow.schemes import make_butcher, make_lmm

from conftest import (NEWTON_CASES, calls_at_base, counting, gauss2_tableau,
                      linear_model, logging_velocity, newton_case,
                      newton_case_states, random_subspace, refilled_cubic)


def burgers_small(n=32):
    return benchmodels.burgers1d(
        benchmodels.BenchmarkSpec(name="burgers", n=n, viscosity=0.02))


# ---------------------------------------------------------------- weighting

def dense_weighting_matrix(W, dim):
    return np.column_stack([W.apply(col) for col in np.eye(dim)])


def gnat_weighting():
    rng = np.random.default_rng(1)
    rbasis = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    return hyperreduction.gnat_weighting(
        hyperreduction.SampleSet(indices=(0, 2, 4, 6)), rbasis)


def spd_factor_weighting():
    # all rows, dense factor: the Cholesky factor of an SPD matrix
    rng = np.random.default_rng(2)
    b = rng.standard_normal((8, 8))
    return lspg.WeightingOperator(
        8, factor=np.linalg.cholesky(b @ b.T + 8 * np.eye(8)).T)


WEIGHTINGS = [
    lambda: lspg.scaled_identity(8, 2.5),
    lambda: lspg.collocation(8, np.array([0, 3, 5])),
    lambda: gnat_weighting(),
    lambda: spd_factor_weighting(),
]


@pytest.mark.parametrize("make", WEIGHTINGS)
def test_gram_mat_matches_dense(make):
    W = make()
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 4))
    a = dense_weighting_matrix(W, 8)
    assert np.allclose(W.gram_mat(m), a.T @ a @ m, atol=1e-12)
    assert np.allclose(W.apply_mat(m), a @ m, atol=1e-12)


@pytest.mark.parametrize("make", WEIGHTINGS)
def test_coupled_stage_weighting_is_blockwise(make, monkeypatch, tight_opts):
    # the coupled Runge-Kutta solve weights each stage block with W
    from morrow.schemes import ButcherTableau
    W = make()
    seen = []
    solve = lspg._gauss_newton

    def spy(residual, jacobian, y0, weighting, opts, callback=None):
        seen.append(weighting)
        return solve(residual, jacobian, y0, weighting, opts, callback)

    monkeypatch.setattr(lspg, "_gauss_newton", spy)
    m = linear_model(-np.diag(np.linspace(0.5, 2.0, 8)), x_init=np.ones(8))
    sub = random_subspace(8, 2, seed=11)
    gauss = ButcherTableau(s=2, a=np.array([[0.25, -0.04], [0.54, 0.25]]),
                           b=np.array([0.5, 0.5]), c=np.array([0.21, 0.79]),
                           name="coupled")
    lspg.solve_lspg_rk_coupled(m, sub, W, m.initial_state, 0.0, gauss, 0.1,
                               tight_opts)
    stacked = seen[0]
    rng = np.random.default_rng(3)
    v = rng.standard_normal(16)
    mat = rng.standard_normal((16, 4))
    # a dense factor acts as one block-diagonal product: roundoff only
    assert np.allclose(stacked.apply(v), np.concatenate(
        [W.apply(v[:8]), W.apply(v[8:])]), rtol=1e-13, atol=1e-13)
    assert np.allclose(stacked.apply_mat(mat), np.vstack(
        [W.apply_mat(mat[:8]), W.apply_mat(mat[8:])]), rtol=1e-13, atol=1e-13)


def test_collocation_accepts_sample_set():
    from morrow.hyperreduction import SampleSet
    W = lspg.collocation(6, SampleSet(indices=(1, 4)))
    v = np.arange(6.0)
    assert np.array_equal(W.apply(v), [1.0, 4.0])


@pytest.mark.parametrize("rows, bad", [([3, 10, 999], 999), ([-1, 2], -1),
                                       ([64], 64)])
def test_weighting_rejects_rows_outside_the_state(rows, bad):
    with pytest.raises(ValueError, match=rf"row {bad} is outside \[0, 64\)"):
        lspg.collocation(64, rows)


# ------------------------------------------------------------------ solver

def test_single_step_matches_normal_equations(tight_opts):
    # linear model: the LSPG step has the closed form of a linear
    # least-squares problem; one Gauss-Newton iteration lands on it
    a = np.array([[-1.0, 0.5, 0.0], [0.2, -2.0, 0.3], [0.0, 0.1, -0.5]])
    m = linear_model(a, x_init=[1.0, -1.0, 0.5])
    sub = random_subspace(3, 2, seed=2)
    dt = 0.1
    sch = make_lmm("backward_euler")
    ctx = fom.LmmStepContext(history=(m.initial_state,), n=1, dt=dt,
                             scheme=sch)
    W = lspg.scaled_identity(3)
    yhat, report = lspg.solve_lspg_step_lmm(m, sub, W, ctx, tight_opts)
    # oracle: min_y || (I - dt A) Phi y - x_prev ||
    jac = (np.eye(3) - dt * a) @ sub.basis
    rhs = m.initial_state
    y_star, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
    assert np.allclose(yhat, y_star, atol=1e-10)
    assert report.converged


def test_stationarity_at_converged_step(tight_opts):
    m = burgers_small()
    sub = random_subspace(32, 5, seed=3, reference=m.initial_state)
    sch = make_lmm("backward_euler")
    ctx = fom.LmmStepContext(history=(m.initial_state,), n=1, dt=1e-3,
                             scheme=sch)
    W = lspg.scaled_identity(32)
    yhat, _ = lspg.solve_lspg_step_lmm(m, sub, W, ctx, tight_opts)
    psi = lspg.compute_test_basis(m, sub, W, ctx, reconstruct(sub, yhat))
    r = fom.lmm_residual(m, ctx, reconstruct(sub, yhat))
    assert np.linalg.norm(psi.T @ r) < 1e-10


def test_objective_decreases_monotonically(tight_opts):
    m = burgers_small()
    sub = random_subspace(32, 5, seed=4, reference=m.initial_state)
    _, reports = lspg.integrate_lspg(m, sub, lspg.scaled_identity(32),
                                     make_lmm("backward_euler"), 2e-3, 1e-2,
                                     tight_opts)
    for rep in reports:
        hist = rep.objective_history
        assert all(hist[i + 1] <= hist[i] + 1e-15 for i in range(len(hist) - 1))


def test_rank_deficient_system_raises():
    m = burgers_small()
    sub = random_subspace(32, 5, seed=5, reference=m.initial_state)
    # 2 collocation rows cannot determine 5 unknowns
    W = lspg.collocation(32, np.array([3, 17]))
    with pytest.raises(lspg.GaussNewtonError) as err:
        lspg.integrate_lspg(m, sub, W, make_lmm("backward_euler"), 1e-3,
                            1e-3)
    assert err.value.smallest_singular_value is not None


@pytest.mark.parametrize("scheme", [make_lmm("bdf2"), make_butcher("sdirk2"),
                                    make_butcher("rk4")],
                         ids=lambda sch: sch.name)
def test_gauss_newton_failure_names_its_step(scheme):
    # one collocation row for ten unknowns fails at the first step
    m = burgers_small()
    sub = random_subspace(32, 10, seed=5, reference=m.initial_state)
    with pytest.raises(lspg.GaussNewtonError, match="underdetermined") as err:
        lspg.integrate_lspg(m, sub, lspg.collocation(32, [3]), scheme, 1e-3,
                            3e-3)
    assert err.value.time_index == 1
    # a step Gauss-Newton cannot solve is a step that could not be solved
    assert isinstance(err.value, fom.StepSolveError)


def test_gn_diagnostics_csv_schema(tmp_path, tight_opts):
    m = burgers_small()
    sub = random_subspace(32, 4, seed=6, reference=m.initial_state)
    _, reports = lspg.integrate_lspg(m, sub, lspg.scaled_identity(32),
                                     make_lmm("backward_euler"), 2e-3, 6e-3,
                                     tight_opts)
    path = tmp_path / "gn.csv"
    lspg.write_gn_diagnostics_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,iters,objective_final,grad_norm"
    assert len(lines) == 1 + 3


# ------------------------------------------------------------- equivalences

def test_explicit_lmm_matches_galerkin(tight_opts):
    # forward Euler with W = (1/sqrt(alpha_0)) I: the LSPG minimizer is the
    # Galerkin update exactly
    m = burgers_small()
    sub = random_subspace(32, 8, seed=7, reference=m.initial_state)
    sch = make_lmm("forward_euler")
    W = lspg.scaled_identity(32, 1.0)  # alpha_0 = 1
    g = galerkin.integrate_galerkin(m, sub, sch, 1e-3, 1e-2, tight_opts)
    l, _ = lspg.integrate_lspg(m, sub, W, sch, 1e-3, 1e-2, tight_opts)
    for yg, yl in zip(g.states, l.states):
        assert np.linalg.norm(np.asarray(yg) - np.asarray(yl)) < 1e-10


def test_explicit_lmm_step_calls_no_model_jacobian():
    # forward Euler: the residual is affine in y with Jacobian alpha_0 Phi,
    # so one Gauss-Newton step evaluates f at x^{n-1} once per residual
    # call (the start and the accepted step) and J never
    m = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="burgers", n=64, viscosity=0.05))
    sch, dt, T = make_lmm("forward_euler"), 1e-3, 0.05
    x = fom.integrate(m, sch, dt, T).states
    u = np.linalg.svd((x[1:] - x[0]).T, full_matrices=False)[0]
    sub = TrialSubspace(basis=u[:, :4], reference=x[0])
    logged, velocities = logging_velocity(m)
    jacobians = []

    def jacobian(x, t):
        jacobians.append(t)
        return m.jacobian(x, t)

    lspg.integrate_lspg(replace(logged, jacobian=jacobian), sub,
                        lspg.scaled_identity(64), sch, dt, T)
    assert len(velocities) == 100 and not jacobians


def test_explicit_rk_matches_galerkin(tight_opts):
    m = burgers_small()
    sub = random_subspace(32, 8, seed=8, reference=m.initial_state)
    tab = make_butcher("rk4")
    g = galerkin.integrate_galerkin(m, sub, tab, 1e-3, 1e-2, tight_opts)
    l, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(32), tab, 1e-3,
                               1e-2, tight_opts)
    for yg, yl in zip(g.states, l.states):
        assert np.linalg.norm(np.asarray(yg) - np.asarray(yl)) < 1e-10


def test_coupled_rk_stationarity(tight_opts):
    # fully implicit tableau goes through the stacked Gauss-Newton path
    gauss = gauss2_tableau()
    m = burgers_small(16)
    sub = random_subspace(16, 4, seed=9, reference=m.initial_state)
    traj, reports = lspg.integrate_lspg(m, sub, lspg.scaled_identity(16),
                                        gauss, 1e-3, 3e-3, tight_opts)
    assert len(traj.states) == 4
    assert all(rep.converged for rep in reports)


def test_dt_to_zero_limit(tight_opts):
    # backward Euler: LSPG approaches Galerkin as dt -> 0
    m = burgers_small()
    sub = random_subspace(32, 6, seed=10, reference=m.initial_state)
    sch = make_lmm("backward_euler")
    diffs = []
    for dt in (4e-3, 2e-3, 1e-3):
        g = galerkin.integrate_galerkin(m, sub, sch, dt, 8e-3, tight_opts)
        l, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(32), sch,
                                   dt, 8e-3, tight_opts)
        diffs.append(max(
            np.linalg.norm(np.asarray(a) - np.asarray(b))
            for a, b in zip(g.states, l.states)))
    assert diffs[0] > diffs[1] > diffs[2]


# ------------------------------------------------------ Newton-matrix reuse

@pytest.mark.parametrize("case,products", [("gradflow-sdirk2", 1),
                                           ("gradflow-bdf2", 2)])
def test_linear_lspg_forms_jacobian_product_once_per_coefficients(
        case, products, monkeypatch):
    # SDIRK2 stages share a_ii; BDF2 starts with one backward-Euler step
    model, scheme, dt, T = newton_case(case)
    sub = random_subspace(model.dim, 3, seed=1,
                          reference=model.initial_state)
    shifted = counting(monkeypatch, fom, "shifted")
    _, reports = lspg.integrate_lspg(model, sub, lspg.scaled_identity(
        model.dim), scheme, dt, T)
    assert sum(r.iterations for r in reports) > products
    assert len(shifted) == products


@pytest.mark.parametrize("case", NEWTON_CASES)
@pytest.mark.parametrize("kind", ["lspg", "gnat"])
def test_newton_reuse_is_bitwise(case, kind, request, monkeypatch):
    # the gradient flow's -A is read-only, so its key compares no entries
    compares = counting(monkeypatch, np, "array_equal")
    reused = newton_case_states(case, kind)
    assert (len(compares) == 0) == case.startswith("gradflow")
    request.getfixturevalue("always_miss")
    assert np.array_equal(reused, newton_case_states(case, kind))


def test_rk_stages_share_one_base_velocity(request):
    # both SDIRK2 stages start Gauss-Newton from Phi^T f(x^{n-1}, t^{n-1})
    model, scheme, dt, T = newton_case("gradflow-sdirk2")
    sub = random_subspace(model.dim, 3, seed=1,
                          reference=model.initial_state)
    W = lspg.scaled_identity(model.dim)
    logged, calls = logging_velocity(model)
    yhats = lspg.integrate_lspg(logged, sub, W, scheme, dt, T)[0].states
    lifted = [reconstruct(sub, y) for y in yhats]
    assert calls_at_base(calls, lifted, dt) == [1] * round(T / dt)
    request.getfixturevalue("always_miss")
    assert np.array_equal(yhats, lspg.integrate_lspg(
        model, sub, W, scheme, dt, T)[0].states)


def test_refilled_jacobian_buffer_gives_fresh_products(tight_opts):
    # one buffer handed back as is, or as a read-only view of it
    *buffered, fresh = refilled_cubic(6)
    sub = random_subspace(6, 2, seed=4, reference=fresh.initial_state)
    W = lspg.scaled_identity(6)
    want = lspg.integrate_lspg(fresh, sub, W, make_butcher("sdirk2"), 0.1,
                               0.5, tight_opts)[0].states
    for m in buffered:
        assert np.array_equal(lspg.integrate_lspg(
            m, sub, W, make_butcher("sdirk2"), 0.1, 0.5,
            tight_opts)[0].states, want)


# ------------------------------------------------ the shared stage residual

def handed_to_callback(monkeypatch, run):
    """Run run(callback) and return its trajectory, the residuals handed to
    callback and, per Gauss-Newton solve, the iterates they were taken at."""
    handed, iterates = [], []
    solve = lspg._gauss_newton

    def spy(residual, jacobian, y0, W, opts, callback=None):
        last, at = {}, []
        iterates.append(at)

        def remembered(y):
            last["y"], last["r"] = y.copy(), residual(y)
            return last["r"]

        def forward(r):
            assert r is last["r"]  # Gauss-Newton hands on its last residual
            at.append(last["y"])
            callback(r)

        return solve(remembered, jacobian, y0, W, opts, forward)

    monkeypatch.setattr(lspg, "_gauss_newton", spy)
    traj, _ = run(lambda r: handed.append(r.copy()))
    return traj, handed, iterates


def test_rk_stage_lspg_minimizes_fom_stage_residual(monkeypatch, tight_opts):
    # each stage solve hands on fom's stage residual at the stage value
    # Phi y, in the context of the recorded earlier stages
    m = burgers_small()
    sub = random_subspace(32, 4, seed=13, reference=m.initial_state)
    phi, tab, dt = sub.basis, make_butcher("sdirk2"), 2e-3
    traj, handed, iterates = handed_to_callback(
        monkeypatch, lambda cb: lspg.integrate_lspg(
            m, sub, lspg.scaled_identity(32), tab, dt, 4 * dt, tight_opts,
            callback=cb))
    want = []
    for k, ys in enumerate(iterates):
        n, i = divmod(k, tab.s)
        ctx = fom.rk_stage_context(
            reconstruct(sub, traj.states[n]), n * dt, tab, dt,
            [phi @ traj.stages[n, j] for j in range(i)])
        want += [fom.rk_residual(m, ctx, phi @ y) for y in ys]
    assert len(iterates) == 4 * tab.s and len(want) > len(iterates)
    assert len(handed) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(handed, want))


def test_coupled_lspg_minimizes_fom_coupled_residual(monkeypatch,
                                                     tight_opts):
    # a fully implicit step hands on each stage block of fom's stacked
    # residual at the stage values Phi y_i
    m = burgers_small(16)
    sub = random_subspace(16, 4, seed=9, reference=m.initial_state)
    phi, tab, dt = sub.basis, gauss2_tableau(), 1e-3
    traj, handed, iterates = handed_to_callback(
        monkeypatch, lambda cb: lspg.integrate_lspg(
            m, sub, lspg.scaled_identity(16), tab, dt, 3 * dt, tight_opts,
            callback=cb))
    want = []
    for n, zs in enumerate(iterates):
        for z in zs:
            ws = [phi @ y for y in z.reshape(tab.s, sub.p)]
            want += list(fom.rk_coupled_residual(m, fom.rk_stage_points(
                reconstruct(sub, traj.states[n]), n * dt, tab, dt, ws),
                ws).reshape(tab.s, -1))
    assert len(iterates) == 3 and len(want) > 3 * tab.s
    assert len(handed) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(handed, want))

"""Full-order time stepping against closed-form and high-accuracy oracles."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from morrow import fom, galerkin, lspg
from morrow.core import (JacobianKey, Model, SolverOptions, Trajectory,
                         TrialSubspace, read_csv)
from morrow.schemes import make_butcher, make_lmm

from conftest import (NEWTON_CASES, calls_at_base, counting, gauss2_tableau,
                      linear_model, logging_velocity, newton_case,
                      newton_case_states, random_subspace, refilled_cubic,
                      singular_dense_model, singular_sparse_model)


def scalar_decay(lam=-2.0):
    a = np.array([[lam]])
    return linear_model(a, x_init=[1.0])


def test_lmm_residual_backward_euler_hand_check():
    m = scalar_decay(-2.0)
    sch = make_lmm("backward_euler")
    ctx = fom.LmmStepContext(history=(np.array([1.0]),), n=1, dt=0.1,
                             scheme=sch)
    w = np.array([0.8])
    # r = w - x_prev - dt * (-2 w)
    expected = 0.8 - 1.0 - 0.1 * (-2.0 * 0.8)
    assert abs(fom.lmm_residual(m, ctx, w)[0] - expected) < 1e-14
    assert abs(fom.shifted(*fom.lmm_jacobian_terms(m, ctx, w))[0, 0]
               - (1.0 + 0.2)) < 1e-14


def test_backward_euler_step_linear_oracle(tight_opts):
    # x^n = x^{n-1} / (1 - dt*lam) for dx/dt = lam x
    m = scalar_decay(-3.0)
    dt = 0.05
    traj = fom.integrate(m, make_lmm("backward_euler"), dt, 10 * dt,
                         tight_opts)
    x = 1.0
    for n in range(1, 11):
        x = x / (1.0 + 3.0 * dt)
        assert abs(traj.states[n][0] - x) < 1e-10


def test_forward_euler_is_direct_update():
    m = scalar_decay(-3.0)
    opts = SolverOptions(max_iters=1)  # explicit path must not need Newton
    traj = fom.integrate(m, make_lmm("forward_euler"), 0.1, 0.3, opts)
    x = 1.0
    for n in range(1, 4):
        x = x + 0.1 * (-3.0 * x)
        assert abs(traj.states[n][0] - x) < 1e-14


def test_history_length_validation():
    sch = make_lmm("bdf2")
    with pytest.raises(ValueError):
        fom.LmmStepContext(history=(np.zeros(1),), n=5, dt=0.1, scheme=sch)


@pytest.mark.parametrize("name,order", [
    ("backward_euler", 1),
    ("bdf2", 2),
])
def test_lmm_convergence_order(name, order, tight_opts):
    m = scalar_decay(-1.0)
    errs = []
    for dt in (0.02, 0.01, 0.005):
        traj = fom.integrate(m, make_lmm(name), dt, 0.4, tight_opts)
        errs.append(abs(traj.states[-1][0] - np.exp(-0.4)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - order) < 0.2)


@pytest.mark.parametrize("name,order", [
    ("explicit_euler", 1),
    ("implicit_midpoint", 2),
    ("sdirk2", 2),
    ("rk4", 4),
])
def test_rk_convergence_order(name, order, tight_opts):
    m = scalar_decay(-1.0)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = fom.integrate(m, make_butcher(name), dt, 0.4, tight_opts)
        errs.append(abs(traj.states[-1][0] - np.exp(-0.4)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(rates - order) < 0.35)


def test_fully_implicit_coupled_solve(tight_opts):
    # 2-stage Gauss collocation (order 4) exercises the stacked Newton path
    gauss = gauss2_tableau()
    m = scalar_decay(-1.0)
    errs = []
    for dt in (0.2, 0.1):
        traj = fom.integrate(m, gauss, dt, 0.4, tight_opts)
        errs.append(abs(traj.states[-1][0] - np.exp(-0.4)))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_rk_stage_residual_vanishes_at_solution(tight_opts):
    m = scalar_decay(-2.0)
    tab = make_butcher("sdirk2")
    base = np.array([0.7])
    stage_values = fom.solve_rk_step(m, base, tab, 0.05, tight_opts,
                                     t_base=0.3)
    for i in range(tab.s):
        ctx = fom.rk_stage_context(base, 0.3, tab, 0.05, stage_values[:i])
        assert np.linalg.norm(
            fom.rk_residual(m, ctx, stage_values[i])) < 1e-10


def test_newton_failure_carries_diagnostics():
    # velocity with no fixed point reachable in one iteration at huge dt
    m = Model(dim=1, velocity=lambda x, t: np.array([x[0] ** 2 + 1.0]),
              jacobian=lambda x, t: np.array([[2.0 * x[0]]]),
              initial_state=np.array([0.0]))
    opts = SolverOptions(newton_abs_tol=1e-15, newton_rel_tol=1e-15,
                         max_iters=2)
    with pytest.raises(fom.StepSolveError) as err:
        fom.integrate(m, make_lmm("backward_euler"), 50.0, 100.0, opts)
    assert err.value.time_index is not None
    assert err.value.residual_norm is not None


def test_singular_sparse_newton_matrix_is_a_step_failure():
    model = singular_sparse_model()
    # I - 0.4 J is regular
    fom.integrate(model, make_lmm("backward_euler"), 0.4, 0.8)
    with pytest.raises(fom.StepSolveError, match="singular") as err:
        fom.integrate(model, make_lmm("backward_euler"), 2.0, 4.0)
    assert err.value.time_index == 1


def test_singular_dense_newton_matrix_is_a_step_failure():
    # I - 0.1 J = diag(0, 1.1): a zero pivot in dgetrf, with no warning
    model = singular_dense_model(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fom.StepSolveError,
                           match="exactly singular") as err:
            fom.integrate(model, make_lmm("backward_euler"), 0.1, 0.3)
    assert err.value.time_index == 1


@pytest.mark.parametrize("norm", ["inf", "nan"])
def test_residual_that_is_not_finite_is_a_step_failure(norm, monkeypatch):
    # an infinite first residual would set the tolerance to inf and accept
    # the warm start x^0 at every step (1e307 * 3^3 overflows); a NaN one
    # would never converge
    model = Model(dim=2, velocity=(lambda x, t: 1e307 * x**3) if norm == "inf"
                  else (lambda x, t: np.full(2, np.nan)),
                  jacobian=lambda x, t: np.diag(3e307 * x**2),
                  initial_state=np.array([1.0, 3.0]))
    factors = counting(monkeypatch, fom, "dgetrf")
    with pytest.raises(fom.StepSolveError, match="residual is not finite") \
            as err:
        fom.integrate(model, make_lmm("backward_euler"), 0.1, 0.3)
    assert err.value.time_index == 1 and factors == []
    assert str(err.value.residual_norm) == norm


@pytest.mark.parametrize("integrator", ["fom", "galerkin", "lspg"])
def test_state_that_is_not_finite_names_its_step(integrator):
    # the velocity is NaN from t = 0.27 on: rk4's last stage of step 3
    # (t = 0.3) is the first to read it, and no explicit stage solves
    # anything that could fail first
    m = Model(dim=4, velocity=lambda x, t: -x if t < 0.27 else
              np.full(4, np.nan), jacobian=lambda x, t: -np.eye(4),
              initial_state=np.ones(4))
    sub = random_subspace(4, 2, reference=m.initial_state)
    rk4 = make_butcher("rk4")
    run = {"fom": lambda: fom.integrate(m, rk4, 0.1, 1.0),
           "galerkin": lambda: galerkin.integrate_galerkin(m, sub, rk4, 0.1,
                                                           1.0),
           "lspg": lambda: lspg.integrate_lspg(
               m, sub, lspg.scaled_identity(4), rk4, 0.1, 1.0)}[integrator]
    with pytest.raises(fom.StepSolveError) as err:
        run()
    assert err.value.time_index == 3


@pytest.mark.parametrize("integrator", ["fom", "galerkin", "lspg"])
def test_infinite_velocity_names_its_step(integrator):
    # the velocity is +inf from t = 0.27 on, as above; on a positive
    # one-column basis LSPG's stage residual and gradient are then -inf,
    # which Gauss-Newton must reject rather than accept its warm start as
    # converged (its tolerance max(abs_tol, rel_tol * inf) would be inf)
    m = Model(dim=4, velocity=lambda x, t: -x if t < 0.27 else
              np.full(4, np.inf), jacobian=lambda x, t: -np.eye(4),
              initial_state=np.ones(4))
    sub = TrialSubspace(basis=np.full((4, 1), 0.5), reference=np.ones(4))
    rk4 = make_butcher("rk4")
    run = {"fom": lambda: fom.integrate(m, rk4, 0.1, 1.0),
           "galerkin": lambda: galerkin.integrate_galerkin(m, sub, rk4, 0.1,
                                                           1.0),
           "lspg": lambda: lspg.integrate_lspg(
               m, sub, lspg.scaled_identity(4), rk4, 0.1, 1.0)}[integrator]
    with pytest.raises(fom.StepSolveError) as err:
        run()
    assert err.value.time_index == 3


def test_num_steps_rejects_non_integer_ratio():
    m = scalar_decay()
    with pytest.raises(ValueError):
        fom.integrate(m, make_lmm("backward_euler"), 0.3, 1.0)


def test_trajectory_csv_round_trip(tmp_path, tight_opts):
    a = np.array([[0.0, 1.0], [-1.0, -0.1]])
    m = linear_model(a, x_init=[1.0, 0.0])
    traj = fom.integrate(m, make_lmm("bdf2"), 0.05, 0.5, tight_opts)
    path = tmp_path / "traj.csv"
    fom.write_trajectory_csv(traj, path)
    header, back = read_csv(path)
    assert header == ["t", "x_0", "x_1"]
    assert abs(back[1, 0] - back[0, 0] - traj.dt) < 1e-15
    assert np.array_equal(back[:, 1:], traj.states)


def test_trajectory_csv_recovers_dt_bitwise(tmp_path):
    # t[0] is written as 0.0 and t[1] as repr(1 * dt), so t[1] - t[0] reads
    # back as dt itself
    rng = np.random.default_rng(0)
    dts = [0.1, 1 / 3, 2.5e-4, 7.8125e-5, 1e-2 / 3] \
        + [0.64 / k for k in range(1, 200)] \
        + list(10.0 ** rng.uniform(-8.0, 1.0, 200))
    path = tmp_path / "traj.csv"
    for dt in dts:
        fom.write_trajectory_csv(
            Trajectory(dt=dt, states=np.ones((3, 2)), kind="full"), path)
        t = read_csv(path)[1][:, 0]
        assert t[1] - t[0] == dt, dt


def test_rk_integrate_records_stages_and_lmm_does_not(tight_opts):
    a = np.array([[-1.0, 0.3], [0.0, -2.0]])
    m = linear_model(a, x_init=[1.0, -0.5])
    tab = make_butcher("sdirk2")
    dt = 0.1
    traj = fom.integrate(m, tab, dt, 5 * dt, tight_opts)
    assert traj.states.shape == (6, 2)
    assert traj.stages.shape == (5, 2, 2)
    for n in range(1, 6):
        stages = fom.solve_rk_step(m, traj.states[n - 1], tab, dt,
                                   tight_opts, t_base=(n - 1) * dt)
        assert np.array_equal(traj.stages[n - 1], stages)
    assert fom.integrate(m, make_lmm("bdf2"), dt, 5 * dt,
                         tight_opts).stages is None


# ------------------------------------------------------ Newton-matrix reuse

def test_linear_sdirk2_factors_once(monkeypatch):
    # both SDIRK2 stages and all 10 steps share I - dt a_ii J
    model, scheme, dt, T = newton_case("gradflow-sdirk2")
    factors = counting(monkeypatch, fom, "dgetrf")
    fom.integrate(model, scheme, dt, T)
    assert len(factors) == 1


@pytest.mark.parametrize("case", ["burgers-be-dense", "burgers-be-sparse"])
def test_burgers_factors_once_per_newton_iteration(case, monkeypatch,
                                                   tight_opts):
    model, scheme, dt, T = newton_case(case)
    jacobians = []

    def jacobian(x, t, jac=model.jacobian):
        jacobians.append(t)
        return jac(x, t)

    model = replace(model, jacobian=jacobian)
    dense = counting(monkeypatch, fom, "dgetrf")
    band = counting(monkeypatch, fom, "dgbtrf")
    fom.integrate(model, scheme, dt, T, tight_opts)
    assert len(jacobians) > round(T / dt)  # several Newton iterations a step
    factors, other = (dense, band) if case.endswith("dense") else (band, dense)
    assert len(factors) == len(jacobians) and other == []


@pytest.mark.parametrize("case", NEWTON_CASES)
@pytest.mark.parametrize("kind", ["fom", "galerkin"])
def test_newton_reuse_is_bitwise(case, kind, request, monkeypatch):
    # the gradient flow's -A is read-only, so its key compares no entries,
    # and neither does Galerkin's Phi^T (-A) Phi, formed once, read-only
    compares = counting(monkeypatch, np, "array_equal")
    reused = newton_case_states(case, kind)
    assert (len(compares) == 0) == case.startswith("gradflow")
    request.getfixturevalue("always_miss")
    assert np.array_equal(reused, newton_case_states(case, kind))


def test_rk_step_evaluates_base_velocity_once(request):
    # both SDIRK2 stages start Newton from f(x^{n-1}, t^{n-1})
    model, scheme, dt, T = newton_case("gradflow-sdirk2")
    logged, calls = logging_velocity(model)
    states = fom.integrate(logged, scheme, dt, T).states
    assert calls_at_base(calls, states, dt) == [1] * round(T / dt)
    request.getfixturevalue("always_miss")
    assert np.array_equal(states, fom.integrate(model, scheme, dt, T).states)


def test_refilled_jacobian_buffer_is_refactored(monkeypatch):
    # one buffer handed back as is, or as a read-only view that does not
    # own its memory: both are keyed by content
    *buffered, fresh = refilled_cubic()
    factors = counting(monkeypatch, fom, "dgetrf")
    want = fom.integrate(fresh, make_lmm("backward_euler"), 0.1, 0.5).states
    fresh_factors = len(factors)
    for model in buffered:
        factors.clear()
        traj = fom.integrate(model, make_lmm("backward_euler"), 0.1, 0.5)
        assert np.array_equal(traj.states, want)
        # a cache keyed on the buffer's identity would factor once
        assert len(factors) == fresh_factors > 5


def test_newton_matrix_keys_on_contents(monkeypatch):
    from scipy import sparse
    rhs = np.array([1.0, 2.0, 3.0])
    basis = np.eye(3)[:, :2]
    frozen = np.diag([1.0, 2.0, 3.0])
    frozen.setflags(write=False)
    for jac in (np.diag([1.0, 2.0, 3.0]),
                sparse.csr_array(np.diag([1.0, 2.0, 3.0])), frozen):
        newton = fom.NewtonMatrix()
        # 1 - 0.25 J = diag(0.75, 0.5, 0.25)
        assert np.allclose(newton.solve(1.0, 0.25, jac, rhs),
                           rhs / [0.75, 0.5, 0.25])
        assert np.allclose(newton.times(1.0, 0.25, jac, basis),
                           np.diag([0.75, 0.5, 0.25])[:, :2])
        if jac is frozen:
            # a read-only owner is kept, not copied, and matched by identity
            assert JacobianKey(jac)._arrays[0] is jac
            compares = counting(monkeypatch, np, "array_equal")
            assert np.allclose(newton.solve(1.0, 0.25, jac, rhs),
                               rhs / [0.75, 0.5, 0.25])
            assert compares == []
            jac.setflags(write=True)  # writeable again: keyed by content
        if isinstance(jac, np.ndarray):
            jac[...] = 2.0 * np.eye(3)  # refilled in place
        else:
            jac.data[:] = 2.0
        assert np.allclose(newton.solve(1.0, 0.25, jac, rhs), rhs / 0.5)
        assert np.allclose(newton.times(1.0, 0.25, jac, basis),
                           0.5 * basis)
        assert np.allclose(newton.solve(2.0, 0.25, jac, rhs), rhs / 1.5)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morrow import analysis, benchmodels, bounds, lspg
from morrow.core import Trajectory, lift, reconstruct
from morrow.schemes import LmmScheme, make_butcher, make_lmm

from conftest import linear_model, random_subspace


# ------------------------------------------------------- trajectory error

def test_identical_series_zero_error():
    t = np.linspace(0, 1, 11)
    p = np.sin(t)
    assert analysis.trajectory_error(t, p, t, p) == 0.0


def test_doubled_series_unit_error():
    t = np.linspace(0, 1, 11)
    p = np.cos(t) + 2.0
    assert abs(analysis.trajectory_error(t, 2 * p, t, p) - 1.0) < 1e-14


def test_interpolated_error_matches_manual_oracle():
    t_coarse = np.linspace(0, 1, 6)
    t_fine = np.linspace(0, 1, 41)
    p = np.sin(2 * np.pi * t_coarse)
    p_ref = np.sin(2 * np.pi * t_fine)
    got = analysis.trajectory_error(t_coarse, p, t_fine, p_ref)
    # independent interpolation + norm
    interp = np.empty_like(t_fine)
    for i, tf in enumerate(t_fine):
        j = min(np.searchsorted(t_coarse, tf, side="right") - 1,
                len(t_coarse) - 2)
        w = (tf - t_coarse[j]) / (t_coarse[j + 1] - t_coarse[j])
        interp[i] = (1 - w) * p[j] + w * p[j + 1]
    expected = np.linalg.norm(interp - p_ref) / np.linalg.norm(p_ref)
    assert abs(got - expected) < 1e-12


@given(st.floats(min_value=0.1, max_value=10.0),
       st.booleans())
@settings(max_examples=20, deadline=None)
def test_error_scale_invariant_in_reference(c, negate):
    if negate:
        c = -c
    t = np.linspace(0, 1, 9)
    p = np.exp(-t)
    ref = np.cosh(t)
    a = analysis.trajectory_error(t, p, t, ref)
    b = analysis.trajectory_error(t, c * p, t, c * ref)
    assert abs(a - b) < 1e-10


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        analysis.trajectory_error([], [], [0.0], [1.0])


# --------------------------------------------- increment projection error

def test_increments_in_range_give_zero():
    sub = random_subspace(10, 3, seed=0)
    rng = np.random.default_rng(1)
    coords = [rng.standard_normal(3) for _ in range(5)]
    states = tuple(sub.basis @ c for c in coords)
    traj = Trajectory(dt=0.1, states=states, kind="full")
    ratios, flags, mx = analysis.relative_increment_projection_error(traj, sub)
    assert mx < 1e-12


def test_orthogonal_increments_give_one():
    sub = random_subspace(10, 3, seed=2)
    rng = np.random.default_rng(3)
    # build increments in the orthogonal complement
    comp = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    comp = comp - sub.basis @ (sub.basis.T @ comp)
    states = [np.zeros(10)]
    for k in range(4):
        states.append(states[-1] + comp[:, k])
    traj = Trajectory(dt=0.1, states=tuple(states), kind="full")
    _, _, mx = analysis.relative_increment_projection_error(traj, sub)
    assert abs(mx - 1.0) < 1e-10


def test_ratios_match_dense_evaluation():
    sub = random_subspace(12, 4, seed=4)
    rng = np.random.default_rng(5)
    states = tuple(rng.standard_normal(12) for _ in range(6))
    traj = Trajectory(dt=0.1, states=states, kind="full")
    ratios, _, _ = analysis.relative_increment_projection_error(traj, sub)
    proj = np.eye(12) - sub.basis @ sub.basis.T
    for k in range(1, 6):
        d = states[k] - states[k - 1]
        assert abs(ratios[k - 1]
                   - np.linalg.norm(proj @ d) / np.linalg.norm(d)) < 1e-12


def test_zero_increment_flagged_and_excluded():
    sub = random_subspace(6, 2, seed=6)
    s = np.random.default_rng(7).standard_normal(6)
    traj = Trajectory(dt=0.1, states=(s, s, s + 1.0), kind="full")
    ratios, flags, mx = analysis.relative_increment_projection_error(traj, sub)
    assert flags[0] and not flags[1]
    assert mx == ratios[1]


# ----------------------------------------------------------------- spectra

def test_pure_tone_peak_and_tau95():
    dt = 0.01
    n = 512
    f0 = 5.0
    t = dt * np.arange(n)
    rep = analysis.spectral_analysis(np.sin(2 * np.pi * f0 * t), dt)
    peak = rep.frequencies[np.argmax(rep.psd[:, 0])]
    assert abs(peak - f0) <= rep.bin_width
    assert abs(rep.tau95[0] - 1.0 / f0) <= rep.bin_width / f0**2 * 2
    assert abs(np.sum(rep.psd[:, 0]) - 1.0) < 1e-9


def test_constant_series_undefined_tau():
    rep = analysis.spectral_analysis(np.full(64, 3.7), 0.1)
    assert np.all(rep.psd[:, 0] == 0.0)
    assert np.isnan(rep.tau95[0])


def test_two_tone_energy_split():
    dt = 1.0 / 256
    t = dt * np.arange(1024)
    f1, f2 = 2.0, 50.0
    # 96% / 4% energy split: f95 lands on the low tone's bin
    y = np.sqrt(0.96) * np.sin(2 * np.pi * f1 * t) \
        + np.sqrt(0.04) * np.sin(2 * np.pi * f2 * t)
    rep = analysis.spectral_analysis(y, dt)
    assert abs(rep.tau95[0] - 1.0 / f1) < 1e-9


def test_tau95_nonincreasing_as_energy_moves_up():
    dt = 1.0 / 256
    t = dt * np.arange(1024)
    f1, f2 = 2.0, 50.0
    taus = []
    for w in (0.1, 0.5, 0.9, 0.99):
        y = np.sqrt(1 - w) * np.sin(2 * np.pi * f1 * t) \
            + np.sqrt(w) * np.sin(2 * np.pi * f2 * t)
        taus.append(analysis.spectral_analysis(y, dt).tau95[0])
    assert all(taus[i + 1] <= taus[i] + 1e-12 for i in range(len(taus) - 1))


def test_short_series_rejected():
    with pytest.raises(ValueError):
        analysis.spectral_analysis(np.zeros(8), 0.1)


# ------------------------------------------------------------------- rates

def test_richardson_exact_power_laws():
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    for order in (1.0, 2.0):
        e = 3.0 * dts**order
        est = analysis.richardson_rate(e)
        assert abs(est.order - order) < 1e-9
        assert est.reliable


def test_richardson_sequence_difference_variant():
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    # errors against an offset limit: differences recover the order
    e = 1.7 + 3.0 * dts**2
    est = analysis.richardson_rate(e, against_reference=False)
    assert abs(est.order - 2.0) < 1e-9


def test_richardson_non_monotone_flagged():
    est = analysis.richardson_rate([1.0, 2.0, 0.5, 0.4])
    assert not est.reliable


# ------------------------------------------------------------- comparisons

def test_compare_identical():
    states = tuple(np.full(3, float(i)) for i in range(4))
    a = Trajectory(dt=0.1, states=states, kind="full")
    assert analysis.compare_trajectories(a, a) == 0.0


def test_lift_reconstructs_each_state_of_a_rom_run():
    # by kind, not by dimension: with a full basis (p = N) too, a ROM run
    # is lifted and a full-order run is not
    for p in (2, 6):
        sub = random_subspace(6, p, seed=8, reference=np.arange(6.0))
        coords = np.random.default_rng(p).standard_normal((4, p))
        red = Trajectory(dt=0.1, states=coords, kind="galerkin")
        full = lift(sub, red)
        assert full.kind == "full" and full.dt == red.dt
        assert full.states.shape == (4, 6)
        for x, y in zip(full.states, coords):
            assert np.array_equal(x, reconstruct(sub, y))
        with pytest.raises(ValueError):
            lift(sub, full)


def test_compare_grid_mismatch():
    a = Trajectory(dt=0.1, states=(np.zeros(2),) * 3, kind="full")
    b = Trajectory(dt=0.2, states=(np.zeros(2),) * 3, kind="full")
    with pytest.raises(ValueError):
        analysis.compare_trajectories(a, b)


# --------------------------------------------------------- property checks

NONNORMAL = np.array([[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [0.5, 0.0, -2.0]])


def test_galerkin_lspg_gap_vanishes_only_for_explicit_schemes(tight_opts):
    m = linear_model(NONNORMAL, x_init=[1.0, -1.0, 0.5])
    sub = random_subspace(3, 2, seed=1, reference=m.initial_state)
    W = lspg.scaled_identity(3)
    for explicit in (make_lmm("forward_euler"), make_butcher("rk4")):
        assert analysis.galerkin_lspg_gap(m, sub, W, explicit, 0.05, 0.5,
                                          tight_opts) <= 1e-13
    assert analysis.galerkin_lspg_gap(m, sub, W, make_lmm("backward_euler"),
                                      0.05, 0.5, tight_opts) > 1e-4


def burgers_subspace():
    model = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="burgers", n=24, viscosity=0.02))
    return model, random_subspace(24, 4, seed=2,
                                  reference=model.initial_state)


def test_commutativity_gap_is_roundoff_and_deterministic():
    model, sub = burgers_subspace()
    schemes = [(make_lmm(name), 0.01)
               for name in ("backward_euler", "forward_euler", "bdf2")] \
        + [(make_butcher(name), 0.02)
           for name in ("rk4", "sdirk2", "implicit_midpoint")]
    gaps = [analysis.commutativity_gap(model, sub, schemes, 5,
                                       np.random.default_rng(7))
            for _ in range(2)]
    assert gaps[0] == gaps[1]
    assert 0.0 < gaps[0] <= 1e-12


def test_commutativity_gap_measures_an_inconsistent_scheme():
    # sum_j alpha_j = 0.5: Phi^T r(x0 + Phi y) - r_red(y) = 0.5 Phi^T x0
    model, sub = burgers_subspace()
    coeffs = (np.array([1.0, -0.5]), np.array([1.0, 0.0]))
    bad = LmmScheme(k=1, coeffs=lambda n: coeffs, name="inconsistent")
    gap = analysis.commutativity_gap(model, sub, [(bad, 0.01)], 3,
                                     np.random.default_rng(0))
    expected = 0.5 * np.max(np.abs(sub.basis.T @ sub.reference))
    assert abs(gap - expected) <= 1e-12 * max(expected, 1.0)


def test_bound_violations_names_the_steps_over_the_bound():
    sub = random_subspace(4, 2, seed=3, reference=np.ones(4))
    rng = np.random.default_rng(4)
    rom = Trajectory(dt=0.1, states=rng.standard_normal((5, 2)),
                     kind="galerkin")
    lifted = lift(sub, rom).states
    shift = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ref = Trajectory(dt=0.1, states=lifted + shift[:, None] * 0.5,
                     kind="full")
    errors = shift  # ||(shift / 2) (1, 1, 1, 1)||
    report = bounds.BoundReport(
        kind="galerkin", per_step_local=np.zeros(5),
        per_step_bound=np.array([0.0, 1.01, 1.5, 3.01, 3.9]),
        term_projection=np.zeros(5), coeff=np.zeros(5))
    assert np.allclose(np.linalg.norm(ref.states - lifted, axis=1), errors)
    assert analysis.bound_violations(ref, rom, sub, report) == [2, 4]
    assert analysis.bound_violations(ref, rom, sub, report, atol=0.2) == [2]
    assert analysis.bound_violations(ref, rom, sub, report, rtol=0.5) == []
    ref.states[3, 0] = np.nan
    assert analysis.bound_violations(ref, rom, sub, report, rtol=0.5) == [3]


# ------------------------------------------------------------------ sweeps

def test_sweep_csv_round_trip(tmp_path):
    sweep = analysis.SweepResult(
        dt=np.array([0.008, 0.004]),
        error=np.array([0.1, np.nan]),
        walltime_s=np.array([1.5, 3.0]),
        bound=np.array([0.5, np.nan]),
        stable=np.array([True, False]))
    path = tmp_path / "sweep.csv"
    analysis.write_sweep_csv(sweep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "dt,error,walltime_s,bound,stable"
    # a failed point's error and a missing bound are empty cells
    assert lines[2] == "0.004,,3.0,,0"
    back = analysis.read_sweep_csv(path)
    assert np.array_equal(back.dt, sweep.dt)
    assert back.error[0] == 0.1 and np.isnan(back.error[1])
    assert np.isnan(back.bound[1])
    assert list(back.stable) == [True, False]

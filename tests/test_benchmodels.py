import numpy as np
import pytest

from morrow import benchmodels as bm
from morrow import fom
from morrow.core import SolverOptions, jacobian_fd_check
from morrow.schemes import make_lmm


def test_spec_validation():
    with pytest.raises(ValueError):
        bm.BenchmarkSpec(name="x", n=2)
    with pytest.raises(ValueError):
        bm.BenchmarkSpec(name="x", viscosity=-1.0)
    with pytest.raises(ValueError):
        bm.BenchmarkSpec(name="x", bc="neumann")
    with pytest.raises(ValueError):
        bm.burgers1d(bm.BenchmarkSpec(name="x", initial="sawtooth"))
    with pytest.raises(ValueError):
        bm.gradient_flow_spd(bm.BenchmarkSpec(name="x"))  # no spectrum
    with pytest.raises(ValueError):
        bm.gradient_flow_spd(
            bm.BenchmarkSpec(name="x", spectrum=(1.0, -2.0)))


@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_burgers_jacobian_matches_fd(bc):
    m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=24, viscosity=0.01, bc=bc))
    x = m.initial_state + 0.1 * np.sin(np.linspace(0, 3, 24))
    assert jacobian_fd_check(m, x, 0.0) < 1e-5


def test_advection_diffusion_jacobian_matches_fd():
    m = bm.advection_diffusion(
        bm.BenchmarkSpec(name="a", n=20, viscosity=0.01, speed=-0.7))
    assert jacobian_fd_check(m, m.initial_state, 0.3) < 1e-5


def test_gradient_flow_jacobian_matches_fd():
    m = bm.gradient_flow_spd(
        bm.BenchmarkSpec(name="g", spectrum=tuple(np.linspace(0.5, 3, 8))))
    assert jacobian_fd_check(m, m.initial_state, 0.0) < 1e-5


def test_burgers_constant_periodic_is_steady():
    # constant profiles are exact steady states under periodic conditions
    m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=16, bc="periodic"))
    assert np.max(np.abs(m.velocity(np.full(16, 0.8), 0.0))) < 1e-12


def test_burgers_dirichlet_energy_decays(tight_opts):
    m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=48, viscosity=0.01))
    traj = fom.integrate(m, make_lmm("backward_euler"), 2e-3, 0.1, tight_opts)
    norms = [np.linalg.norm(s) for s in traj.states]
    # the smoothed step relaxes: discrete norm decreases after the start-up
    assert norms[-1] < norms[0]


def test_advection_diffusion_eigenline_decay():
    # a velocity on an eigenvector of A stays on that line
    spec = bm.BenchmarkSpec(name="a", n=12, viscosity=0.02, speed=0.5)
    a = bm.advection_diffusion_matrix(spec)
    lam, v = np.linalg.eig(a)
    i = int(np.argmax(lam.real))
    m = bm.advection_diffusion(spec)
    x = np.real(v[:, i])
    fx = m.velocity(x, 0.0)
    # f(x) = A x is parallel to x for a real eigenvector
    cross = fx - (x @ fx) / (x @ x) * x
    if np.max(np.abs(v[:, i].imag)) < 1e-12:
        assert np.linalg.norm(cross) < 1e-8


def test_advection_diffusion_forcing_enters_velocity():
    g = lambda t: np.full(10, t)
    m = bm.advection_diffusion(
        bm.BenchmarkSpec(name="a", n=10, forcing=g))
    x = np.zeros(10)
    assert np.allclose(m.velocity(x, 2.0) - m.velocity(x, 0.0), 2.0)


def test_gradient_flow_matrix_spd():
    spec = bm.BenchmarkSpec(name="g", spectrum=(0.5, 1.0, 2.0, 4.0))
    m = bm.gradient_flow_spd(spec)
    a = -m.jacobian(m.initial_state, 0.0)
    assert np.allclose(a, a.T)
    w = np.linalg.eigvalsh(a)
    assert np.all(w > 0)
    assert np.allclose(np.sort(w), (0.5, 1.0, 2.0, 4.0), atol=1e-10)


# the spectra of the gradflow_rk_sweep benchmark (its 32 recorded CLI seeds)
# and of `morrow verify --model gradient_flow`
@pytest.mark.parametrize("spectrum, seeds", [
    (np.geomspace(0.1, 50.0, 512), range(32)),
    (np.linspace(0.5, 4.0, 12), [0])], ids=["sweep-benchmark", "verify"])
def test_gradient_flow_matrix_is_bitwise_the_diagonal_product(spectrum,
                                                             seeds):
    lam = np.asarray(spectrum, float)
    for seed in seeds:
        m = bm.gradient_flow_spd(bm.BenchmarkSpec(
            name="gradient_flow", spectrum=tuple(lam), seed=seed))
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (lam.size, lam.size)))
        q = q * np.sign(np.diag(r))
        a = q @ np.diag(lam) @ q.T
        assert np.array_equal(m.jacobian(m.initial_state, 0.0),
                              -0.5 * (a + a.T)), seed


def test_gradient_flow_energy_decreases(tight_opts):
    m = bm.gradient_flow_spd(
        bm.BenchmarkSpec(name="g", spectrum=tuple(np.linspace(1, 5, 6))))
    traj = fom.integrate(m, make_lmm("backward_euler"), 0.05, 1.0, tight_opts)
    norms = [np.linalg.norm(s) for s in traj.states]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_gradient_flow_seed_determinism():
    spec = bm.BenchmarkSpec(name="g", spectrum=(1.0, 2.0, 3.0), seed=7)
    m1 = bm.gradient_flow_spd(spec)
    m2 = bm.gradient_flow_spd(spec)
    assert np.array_equal(m1.initial_state, m2.initial_state)
    x = np.ones(3)
    assert np.array_equal(m1.velocity(x, 0.0), m2.velocity(x, 0.0))
    m3 = bm.gradient_flow_spd(
        bm.BenchmarkSpec(name="g", spectrum=(1.0, 2.0, 3.0), seed=8))
    assert not np.array_equal(m1.initial_state, m3.initial_state)


def test_initial_profiles_shapes_and_bc():
    for initial in ("step", "sine", "gaussian"):
        m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=30, initial=initial))
        assert m.initial_state.shape == (30,)
    step = bm.burgers1d(bm.BenchmarkSpec(name="b", n=200)).initial_state
    # Dirichlet compatibility of the smoothed step near both walls
    assert abs(step[0]) < 0.3 and abs(step[-1]) < 1e-6

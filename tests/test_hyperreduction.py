import numpy as np
import pytest

from morrow import hyperreduction as hr
from morrow import lspg
from morrow.core import SolverOptions
from morrow.schemes import make_lmm

from conftest import linear_model, random_subspace


def test_sample_set_validation():
    hr.SampleSet(indices=(0, 3, 7))
    with pytest.raises(ValueError):
        hr.SampleSet(indices=(3, 0))
    with pytest.raises(ValueError):
        hr.SampleSet(indices=(0, 0, 1))
    with pytest.raises(ValueError):
        hr.SampleSet(indices=(-1, 2))


def test_select_samples_identity_basis():
    # basis columns e_1..e_q: greedy picks exactly rows 0..q-1
    basis = np.eye(8)[:, :4]
    assert hr.select_samples(basis, 4).indices == (0, 1, 2, 3)


def test_select_samples_single_column_argmax():
    basis = np.array([[0.1], [0.9], [0.3]])
    assert hr.select_samples(basis, 1).indices == (1,)


def test_select_samples_oversampling_distinct():
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((20, 4)))[0]
    samples = hr.select_samples(basis, 9)
    assert samples.count == 9
    assert len(set(samples.indices)) == 9
    assert list(samples.indices) == sorted(samples.indices)


def test_select_samples_all_rows_distinct():
    # saturating oversampling must still return n distinct rows, even once
    # the gappy reconstruction becomes exact and residuals vanish
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    samples = hr.select_samples(basis, 10)
    assert samples.indices == tuple(range(10))


@pytest.mark.parametrize("cols, n_s, want", [
    ((3, 7), 5, (0, 1, 2, 3, 7)),
    ((5,), 3, (0, 1, 5)),
    ((0, 1, 2), 6, (0, 1, 2, 3, 4, 5)),
    ((9, 4), 10, tuple(range(10))),
])
def test_select_samples_unit_vectors_take_the_lowest_unchosen_rows(
        cols, n_s, want):
    # once the q unit-vector rows are chosen, every gappy reconstruction is
    # exact: each oversampled pick is the lowest row not yet chosen
    basis = np.eye(10)[:, list(cols)]
    assert hr.select_samples(basis, n_s).indices == want


def test_select_samples_bounds():
    basis = np.eye(5)[:, :3]
    with pytest.raises(ValueError):
        hr.select_samples(basis, 2)   # fewer than q
    with pytest.raises(ValueError):
        hr.select_samples(basis, 6)   # more than N


def test_linear_model_one_snapshot_per_step(tight_opts):
    # Gauss-Newton converges in a single iteration on a linear model, so
    # the training run yields exactly one residual snapshot per time step
    a = -np.diag([1.0, 2.0, 3.0, 4.0])
    m = linear_model(a)
    sub = random_subspace(4, 2, seed=1, reference=m.initial_state)
    snaps = hr.collect_residual_snapshots(m, sub, make_lmm("backward_euler"),
                                          0.05, 0.5, tight_opts)
    assert snaps.vectors.shape == (4, 10)


def test_snapshot_count_equals_gn_iterations(tight_opts):
    from morrow import benchmodels
    m = benchmodels.burgers1d(
        benchmodels.BenchmarkSpec(name="burgers", n=24, viscosity=0.02))
    sub = random_subspace(24, 5, seed=2, reference=m.initial_state)
    sch = make_lmm("backward_euler")
    snaps = hr.collect_residual_snapshots(m, sub, sch, 1e-3, 5e-3, tight_opts)
    _, reports = lspg.integrate_lspg(m, sub, lspg.scaled_identity(24), sch,
                                     1e-3, 5e-3, tight_opts)
    assert snaps.vectors.shape[1] == sum(rep.iterations for rep in reports)


def test_residual_basis_orthonormal(tight_opts):
    a = -np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    m = linear_model(a)
    sub = random_subspace(5, 2, seed=3, reference=m.initial_state)
    snaps = hr.collect_residual_snapshots(m, sub, make_lmm("backward_euler"),
                                          0.05, 0.5, tight_opts)
    basis = hr.build_residual_basis(snaps, 1.0)
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)


def test_gnat_rank_deficiency_detected():
    basis = np.zeros((6, 2))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    # sampled rows 2..3 are identically zero
    with pytest.raises(ValueError, match="sigma_min"):
        hr.gnat_weighting(hr.SampleSet(indices=(2, 3)), basis)


def test_gnat_full_sampling_reproduces_lspg(tight_opts):
    # Z = I and nu_r = 1: the gappy weighting is an orthogonal map on the
    # residual space seen in training, so the GNAT trajectory reproduces
    # the unweighted LSPG trajectory on the training configuration
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    a = -q @ np.diag(np.linspace(0.5, 5.0, 16)) @ q.T
    m = linear_model(a, x_init=np.sin(np.arange(16.0)))
    sub = random_subspace(16, 4, seed=5, reference=m.initial_state)
    sch = make_lmm("backward_euler")
    snaps = hr.collect_residual_snapshots(m, sub, sch, 0.02, 0.6, tight_opts)
    rbasis = hr.build_residual_basis(snaps, 1.0)
    samples = hr.SampleSet(indices=tuple(range(16)))
    W = hr.gnat_weighting(samples, rbasis)
    ref, _ = lspg.integrate_lspg(m, sub, lspg.scaled_identity(16), sch,
                                 0.02, 0.6, tight_opts)
    gnat, _ = lspg.integrate_lspg(m, sub, W, sch, 0.02, 0.6, tight_opts)
    diff = max(np.linalg.norm(np.asarray(x) - np.asarray(y))
               for x, y in zip(ref.states, gnat.states))
    assert diff < 1e-6


def test_sample_set_io_round_trip(tmp_path):
    samples = hr.SampleSet(indices=(0, 5, 9, 12))
    path = tmp_path / "samples.txt"
    hr.write_sample_set(samples, path)
    assert hr.read_sample_set(path).indices == samples.indices
    assert path.read_text() == "0\n5\n9\n12\n"

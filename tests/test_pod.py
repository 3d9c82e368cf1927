import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morrow import pod
from morrow.core import check_orthonormality


def brute_force_dimension(vectors, nu):
    """Independent oracle: normalize columns, SVD, scan n upward."""
    w = vectors / np.linalg.norm(vectors, axis=0)
    sigma = np.linalg.svd(w, compute_uv=False)
    total = np.sum(sigma**2)
    for n in range(1, len(sigma) + 1):
        if np.sum(sigma[:n] ** 2) / total >= nu:
            return n
    return len(sigma)


def random_snapshots(seed, n=12, n_w=8):
    rng = np.random.default_rng(seed)
    # spread of scales so truncation decisions are nontrivial
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(-np.arange(n_w) * rng.uniform(0.3, 1.5))
    return u[:, :n_w] @ np.diag(s) @ rng.standard_normal((n_w, n_w))


def test_dimension_matches_brute_force_scan():
    for seed in range(20):
        vecs = random_snapshots(seed)
        for nu in (0.5, 0.9, 0.99, 0.9999):
            result = pod.compute_pod(pod.SnapshotSet(vectors=vecs), nu)
            assert result.basis.p == brute_force_dimension(vecs, nu), \
                f"seed={seed} nu={nu}"


def test_basis_orthonormal():
    for seed in range(20):
        result = pod.compute_pod(
            pod.SnapshotSet(vectors=random_snapshots(seed)), 0.999)
        assert check_orthonormality(result.basis) < 1e-10


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_dimension_monotone_in_nu(seed):
    vecs = random_snapshots(seed)
    snaps = pod.SnapshotSet(vectors=vecs)
    dims = [pod.compute_pod(snaps, nu).basis.p
            for nu in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0)]
    assert dims == sorted(dims)


def test_nu_zero_gives_single_mode():
    result = pod.compute_pod(
        pod.SnapshotSet(vectors=random_snapshots(3)), 0.0)
    assert result.basis.p == 1


def test_nu_one_keeps_numerical_rank():
    vecs = random_snapshots(5)
    result = pod.compute_pod(pod.SnapshotSet(vectors=vecs), 1.0)
    assert result.basis.p == min(vecs.shape)


def test_sign_convention_deterministic():
    vecs = random_snapshots(7)
    a = pod.compute_pod(pod.SnapshotSet(vectors=vecs), 0.99)
    b = pod.compute_pod(pod.SnapshotSet(vectors=-vecs), 0.99)
    # sign fix: largest-magnitude entry of each mode is positive
    for j in range(a.basis.p):
        col = a.basis.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    assert np.allclose(a.basis.basis, b.basis.basis)


def test_sign_fix_is_bitwise_the_column_loop():
    # the reference: flip each column whose first largest-magnitude entry
    # is negative, one column at a time; ties and signed zeros included
    def loop(u):
        out = u.copy()
        for j in range(u.shape[1]):
            if out[int(np.argmax(np.abs(out[:, j]))), j] < 0.0:
                out[:, j] = -out[:, j]
        return out

    rng = np.random.default_rng(0)
    cases = [np.array([[-1.0, 0.0, 2.0], [1.0, -0.0, -2.0]])]
    for _ in range(50):
        u = np.linalg.svd(rng.standard_normal((rng.integers(2, 40),
                                               rng.integers(1, 12))),
                          full_matrices=False)[0]
        cases.append(u[:, :rng.integers(1, u.shape[1] + 1)])
    for u in cases:
        got = pod._fix_signs(u)
        assert got.tobytes() == loop(u).tobytes() and got.flags.c_contiguous


def test_single_snapshot():
    v = np.array([[3.0], [4.0]])
    result = pod.compute_pod(pod.SnapshotSet(vectors=v), 0.99)
    assert result.basis.p == 1
    assert np.allclose(np.abs(result.basis.basis[:, 0]), [0.6, 0.8])


def test_zero_norm_column_rejected():
    vecs = random_snapshots(1)
    vecs[:, 3] = 0.0
    with pytest.raises(ValueError, match="column 3"):
        pod.compute_pod(pod.SnapshotSet(vectors=vecs), 0.9)


def test_invalid_nu():
    with pytest.raises(ValueError):
        pod.compute_pod(pod.SnapshotSet(vectors=random_snapshots(0)), 1.5)


def test_snapshot_csv_round_trip(tmp_path):
    vecs = random_snapshots(9)
    path = tmp_path / "snaps.csv"
    pod.write_snapshots_csv(pod.SnapshotSet(vectors=vecs), path)
    back = pod.read_snapshots_csv(path)
    assert np.array_equal(back.vectors, vecs)


def test_ragged_snapshot_csv_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s_0,s_1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        pod.read_snapshots_csv(path)

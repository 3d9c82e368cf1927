"""Proper-orthogonal-decomposition basis from snapshots.

Each snapshot column is normalized to unit 2-norm, a thin SVD is taken, and
the basis dimension is the smallest n whose cumulative squared singular
values reach the energy criterion nu.
"""

from dataclasses import dataclass

import numpy as np

from .core import TrialSubspace, read_csv, write_csv


@dataclass(frozen=True)
class SnapshotSet:
    """Columns of the snapshot matrix (N x n_w)."""

    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError("need an N x n_w snapshot matrix with n_w >= 1")


@dataclass(frozen=True)
class PodResult:
    basis: TrialSubspace
    singular_values: np.ndarray
    energy_fractions: np.ndarray


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # SVD sign ambiguity: flip each column so its largest-magnitude entry
    # is positive (argmax takes the lowest index on ties)
    out = u.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def compute_pod(snaps: SnapshotSet, nu: float,
                reference: np.ndarray = None) -> PodResult:
    if not 0.0 <= nu <= 1.0:
        raise ValueError("energy criterion nu must lie in [0, 1]")
    w = np.asarray(snaps.vectors, dtype=float)
    norms = np.linalg.norm(w, axis=0)
    bad = np.where(norms < 1e-14)[0]
    if bad.size:
        raise ValueError(f"zero-norm snapshot at column {bad[0]}")
    w = w / norms

    u, sigma, _ = np.linalg.svd(w, full_matrices=False)
    total = float(np.sum(sigma**2))
    energy = np.cumsum(sigma**2) / total
    if nu == 1.0:
        # keep every computed mode; roundoff in the cumulative energy must
        # not truncate (full sampling relies on a square mode matrix)
        n = len(sigma)
    else:
        # smallest n with cumulative energy >= nu (n = 1 when nu = 0)
        n = int(np.searchsorted(energy, nu) + 1)
        n = min(n, len(sigma))

    if reference is None:
        reference = np.zeros(w.shape[0])
    basis = TrialSubspace(basis=_fix_signs(u[:, :n]), reference=reference)
    return PodResult(basis=basis, singular_values=sigma,
                     energy_fractions=energy)


def write_snapshots_csv(snaps: SnapshotSet, path):
    """One snapshot per column; first row holds column labels."""
    write_csv(path, [f"s_{j}" for j in range(snaps.vectors.shape[1])],
              snaps.vectors)


def read_snapshots_csv(path) -> SnapshotSet:
    return SnapshotSet(vectors=read_csv(path)[1])

"""Proper-orthogonal-decomposition basis from snapshots.

Each snapshot column is normalized to unit 2-norm, a thin SVD is taken, and
the basis dimension is the smallest n whose cumulative squared singular
values reach the energy criterion nu.
"""

from dataclasses import dataclass, replace

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
    peaks = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.where(peaks < 0.0, -1.0, 1.0)


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


def centered(states) -> np.ndarray:
    """Snapshot matrix with columns x^n - x^0, n >= 1.  C order: the POD's
    column norms sum in a layout-dependent order, and C order keeps the
    basis bitwise equal to one built from stacked columns."""
    return np.ascontiguousarray((states[1:] - states[0]).T)


def trajectory_pod(states, nu: float, p: int = 0) -> PodResult:
    """POD of the centered snapshots of a run's states, referenced at its
    first: the modes that meet nu, or, when p > 0, the leading p of the
    untruncated basis (the singular vectors do not depend on nu), copied
    to C order so that a ROM does not depend on the slice's layout."""
    result = compute_pod(SnapshotSet(vectors=centered(states)),
                         1.0 if p else nu, reference=states[0])
    if not p:
        return result
    return replace(result, basis=replace(
        result.basis, basis=np.ascontiguousarray(result.basis.basis[:, :p])))


def write_snapshots_csv(snaps: SnapshotSet, path):
    """One snapshot per column; first row holds column labels."""
    write_csv(path, [f"s_{j}" for j in range(snaps.vectors.shape[1])],
              snaps.vectors)


def read_snapshots_csv(path) -> SnapshotSet:
    return SnapshotSet(vectors=read_csv(path)[1])

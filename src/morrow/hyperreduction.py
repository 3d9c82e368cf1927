"""GNAT ingredients: residual snapshots, residual basis, sample selection,
and the gappy-POD weighting operator (Z Phi_r)^+ Z."""

from dataclasses import dataclass

import numpy as np

from .core import Model, SolverOptions, TrialSubspace, write_text
from . import lspg, pod


@dataclass(frozen=True)
class SampleSet:
    """Strictly increasing row indices into R^N."""

    indices: tuple

    def __post_init__(self):
        idx = list(self.indices)
        if sorted(set(idx)) != idx:
            raise ValueError("sample indices must be unique and increasing")
        if idx and idx[0] < 0:
            raise ValueError("sample indices must be nonnegative")

    @property
    def count(self):
        return len(self.indices)


@dataclass(frozen=True)
class ResidualSnapshotSet:
    vectors: np.ndarray  # N x n_snapshots (execution order)


def collect_residual_snapshots(model: Model, sub: TrialSubspace, scheme,
                               dt, T, opts: SolverOptions = SolverOptions()
                               ) -> ResidualSnapshotSet:
    """Training run: W = I LSPG, one residual vector per Gauss-Newton
    iterate per step, in execution order."""
    snaps = []
    w_ident = lspg.scaled_identity(model.dim)
    lspg.integrate_lspg(model, sub, w_ident, scheme, dt, T, opts,
                        callback=lambda r: snaps.append(r.copy()))
    if not snaps:
        return ResidualSnapshotSet(vectors=np.zeros((model.dim, 0)))
    return ResidualSnapshotSet(vectors=np.column_stack(snaps))


def build_residual_basis(snaps: ResidualSnapshotSet, nu: float) -> np.ndarray:
    result = pod.compute_pod(pod.SnapshotSet(vectors=snaps.vectors), nu)
    return result.basis.basis


def select_samples(basis: np.ndarray, n_s: int) -> SampleSet:
    """Greedy (DEIM-style) row selection.

    Each pass adds the row where the current basis column is worst
    represented by gappy reconstruction on the rows chosen so far;
    additional rows beyond q cycle through the columns again.  Ties break
    to the lowest index.
    """
    n, q = basis.shape
    if n_s < q:
        raise ValueError(f"need at least q = {q} samples, got {n_s}")
    if n_s > n:
        raise ValueError(f"cannot select {n_s} distinct rows from {n}")

    chosen = [int(np.argmax(np.abs(basis[:, 0])))]
    for col in range(1, q):
        sub = basis[chosen, :col]
        coef, *_ = np.linalg.lstsq(sub, basis[chosen, col], rcond=None)
        resid = basis[:, col] - basis[:, :col] @ coef
        resid[chosen] = 0.0
        chosen.append(int(np.argmax(np.abs(resid))))

    col = 0
    while len(chosen) < n_s:  # oversampling: keep cycling the columns
        sub = basis[chosen, :]
        coef, *_ = np.linalg.lstsq(sub, basis[chosen, col], rcond=None)
        score = np.abs(basis[:, col] - basis @ coef)
        score[chosen] = -np.inf  # never re-pick a row
        # where the reconstruction is already exact everywhere, argmax
        # takes the lowest unchosen row, so the requested count is still met
        chosen.append(int(np.argmax(score)))
        col = (col + 1) % q

    return SampleSet(indices=tuple(sorted(chosen)))


def gnat_weighting(samples: SampleSet, residual_basis: np.ndarray
                   ) -> lspg.WeightingOperator:
    """W = (Z Phi_r)^+ Z; requires Z Phi_r to have full column rank."""
    idx = np.asarray(samples.indices, int)
    zphi = residual_basis[idx, :]
    sv = np.linalg.svd(zphi, compute_uv=False)
    q = residual_basis.shape[1]
    if len(sv) < q or sv[-1] <= 1e-10 * sv[0]:
        raise ValueError(
            f"rank-deficient sampled residual basis "
            f"(sigma_min = {sv[-1]:.3e})")
    return lspg.WeightingOperator(residual_basis.shape[0], idx,
                                  np.linalg.pinv(zphi))


def write_sample_set(samples: SampleSet, path):
    write_text(path, map(str, samples.indices))


def read_sample_set(path) -> SampleSet:
    with open(path, encoding="utf-8") as fh:
        idx = [int(line) for line in fh if line.strip()]
    return SampleSet(indices=tuple(idx))

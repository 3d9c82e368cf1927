"""Foundational types shared by every other module, and the artifact format.

A ``Model`` is the full-order system dx/dt = f(x, t) with an analytic
Jacobian; a ``TrialSubspace`` is an orthonormal basis Phi together with the
reference state so approximate solutions live on the affine set
x0 + range(Phi).  All types are immutable after construction.  Every
artifact is written by ``write_text``, every CSV by ``write_csv``.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


@dataclass(frozen=True)
class Model:
    """Full-order ODE system dx/dt = f(x, t) of dimension ``dim``.

    velocity and jacobian must be deterministic; jacobian(x, t) is expected
    to match central finite differences of velocity (see jacobian_fd_check).
    jacobian may return a dense ndarray or a scipy.sparse matrix, and may
    return the same array on every call; callers must not mutate it.  A
    Jacobian returned as a read-only ndarray that owns its memory must
    never change: it is keyed by identity (``JacobianKey``).  A writeable
    buffer, or a read-only view of one, may be refilled between calls and
    is compared by content.  The same rule holds for each of a sparse J's
    pattern arrays (indptr and indices): returned read-only and owning
    their memory, they must never change and are matched by identity, so a
    model may hand every call's matrix the same two arrays.

    restrict, if set, maps row indices (each in [0, dim)) to the
    ``SampleMesh`` of those rows of f, so that LSPG steps weighted by a row
    selection evaluate f and J there only; a model without it is evaluated
    on all rows.  It must describe the same f as velocity: a copy made
    with another velocity (``dataclasses.replace``) keeps the old one.
    """

    dim: int
    velocity: Callable[[np.ndarray, float], np.ndarray]
    jacobian: Callable[[np.ndarray, float], object]
    initial_state: np.ndarray
    restrict: Callable[[np.ndarray], "SampleMesh"] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("model dimension must be positive")
        if self.initial_state.shape != (self.dim,):
            raise ValueError("initial_state shape does not match dim")


class SampleMesh(NamedTuple):
    """Some rows of a model's f, evaluated on the states they depend on.

    mesh holds the sorted indices of those states.  velocity(x, t) and
    jacobian(x, t) take a state x given on the mesh (x_full[mesh]) and
    return the rows of f, in the order asked for, and the same rows of
    df/dx on the mesh's columns (rows x len(mesh), an ndarray or a
    scipy.sparse matrix), under ``Model``'s rules for a Jacobian."""

    mesh: np.ndarray
    velocity: Callable[[np.ndarray, float], np.ndarray]
    jacobian: Callable[[np.ndarray, float], object]


@dataclass(frozen=True)
class TrialSubspace:
    """Affine trial subspace x0 + range(Phi) with orthonormal Phi (N x p)."""

    basis: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        n, p = self.basis.shape
        if not (1 <= p <= n):
            raise ValueError(f"basis must be N x p with 1 <= p <= N, got {n} x {p}")
        if self.reference.shape != (n,):
            raise ValueError("reference dimension does not match basis rows")

    @property
    def p(self) -> int:
        return self.basis.shape[1]

    @property
    def n(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """States at uniform time spacing dt, as one (n+1) x d float array.

    states[n] is the solution at t = n*dt; d = N for kind='full', p
    (generalized coordinates) for ROM kinds.  Runge-Kutta runs also record
    stages[n-1, i], the value of stage i in step n in the same coordinates
    (n x s x d); linear multistep runs leave stages None.
    """

    dt: float
    states: np.ndarray
    kind: str  # {"full", "galerkin", "lspg"}
    stages: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("full", "galerkin", "lspg"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        object.__setattr__(self, "states", np.asarray(self.states, float))
        if self.stages is not None:
            object.__setattr__(self, "stages", np.asarray(self.stages, float))

    def __len__(self):
        return len(self.states)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))


@dataclass(frozen=True)
class SolverOptions:
    """Nonlinear-solver tolerances.

    newton_rel_tol is a residual-norm reduction factor (default 1e-3);
    tests typically tighten both tolerances so that solver error does not
    pollute equivalence checks.
    """

    newton_abs_tol: float = 1e-12
    newton_rel_tol: float = 1e-3
    max_iters: int = 50

    def __post_init__(self):
        if self.newton_abs_tol <= 0 or self.newton_rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def reconstruct(sub: TrialSubspace, yhat: np.ndarray) -> np.ndarray:
    """Lift generalized coordinates: x0 + Phi @ yhat."""
    yhat = np.asarray(yhat, dtype=float)
    if yhat.shape != (sub.p,):
        raise ValueError(f"expected coordinates of length {sub.p}, got {yhat.shape}")
    return sub.reference + sub.basis @ yhat


def lift(sub: TrialSubspace, traj: Trajectory) -> Trajectory:
    """A ROM trajectory in full space, as a 'full' Trajectory at the same
    dt whose row n is reconstruct(sub, traj.states[n])."""
    if traj.kind == "full":
        raise ValueError("a full-order trajectory is not lifted")
    return Trajectory(dt=traj.dt, kind="full",
                      states=[reconstruct(sub, y) for y in traj.states])


def check_orthonormality(sub: TrialSubspace) -> float:
    """Max entrywise deviation of Phi^T Phi from the identity."""
    g = sub.basis.T @ sub.basis
    return float(np.max(np.abs(g - np.eye(sub.p))))


def dense(mat) -> np.ndarray:
    """An ndarray as is; a scipy.sparse matrix as a dense copy."""
    return mat if isinstance(mat, np.ndarray) else mat.toarray()


class JacobianKey:
    """A Jacobian's entries at one call: the ndarray itself, or the index
    and value arrays of its CSR form.  ``matches(jac)`` tells whether jac
    has the same entries bitwise.

    A read-only array that owns its memory never changes (see ``Model``),
    so it is kept by reference and matched by identity while it stays
    read-only.  Every other array is copied and compared by content, since
    a model may refill one buffer in place."""

    def __init__(self, jac):
        self._arrays = [a if frozen(a) else a.copy() for a in _entries(jac)]

    def matches(self, jac) -> bool:
        entries = _entries(jac)
        return len(entries) == len(self._arrays) and all(
            frozen(b) if a is b else np.array_equal(a, b)
            for a, b in zip(entries, self._arrays))


def frozen(a) -> bool:
    """Whether a is a read-only ndarray that owns its memory: a Jacobian
    that never changes (``Model``)."""
    return isinstance(a, np.ndarray) and not a.flags.writeable \
        and a.flags.owndata


def _entries(jac):
    if isinstance(jac, np.ndarray):
        return (jac,)
    csr = jac.tocsr()
    return csr.indptr, csr.indices, csr.data


def norm2(mat) -> float:
    """The spectral norm ||mat||_2 of an ndarray or a scipy.sparse matrix.

    A sparse matrix is never densified: its norm is sqrt(lambda_max(G)),
    G = mat^T mat, taken from G's upper band after a reverse Cuthill-McKee
    reordering (bandwidth 2 for a tridiagonal mat, 5 with a periodic wrap).
    """
    if isinstance(mat, np.ndarray):
        return float(np.linalg.norm(mat, 2))
    from scipy.linalg import eigvals_banded
    band = _gram_band(mat)
    n = band.shape[1]
    lam = eigvals_banded(band, select="i", select_range=(n - 1, n - 1))
    return float(np.sqrt(lam[0]))


def norm2_at_most(mat, bound: float) -> bool:
    """Whether ||mat||_2 <= bound to roundoff: bound^2 I - mat^T mat has a
    Cholesky factor (at ||mat||_2 = bound either answer may come back).
    For a sparse mat this factors G's band once, a fifth to a tenth of
    what ``norm2`` costs on a Burgers Jacobian at N = 512."""
    if isinstance(mat, np.ndarray):
        try:
            np.linalg.cholesky(bound**2 * np.eye(mat.shape[1])
                               - mat.T @ mat)
        except np.linalg.LinAlgError:
            return False
        return True
    from scipy.linalg.lapack import dpbtrf
    band = -_gram_band(mat)
    band[-1] += bound**2
    return dpbtrf(band, overwrite_ab=1)[1] == 0


def _gram_band(mat):
    """G = mat^T mat of a sparse mat, symmetrically reordered by reverse
    Cuthill-McKee, in LAPACK's upper band storage."""
    g = (mat.T @ mat).tocsr()
    _, rows, cols = band_order(g, symmetric=True)
    upper = cols >= rows
    rows, cols = rows[upper], cols[upper]
    u = int(np.max(cols - rows, initial=0))
    band = np.zeros((u + 1, g.shape[0]))
    band[u + rows - cols, cols] = g.data[upper]
    return band


def band_order(csr, symmetric=False):
    """The reverse Cuthill-McKee ordering of a square CSR matrix's
    pattern, as (perm, rows, cols): row and column perm[i] become row and
    column i, and the k-th stored entry moves to (rows[k], cols[k]).  The
    ordering narrows a tridiagonal matrix with a periodic wrap to
    bandwidth 2.  symmetric says that the pattern is symmetric, so it is
    read as is rather than symmetrized first."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    perm = reverse_cuthill_mckee(csr, symmetric_mode=symmetric)
    where = np.empty_like(perm)
    where[perm] = np.arange(len(perm), dtype=perm.dtype)
    rows = np.repeat(where, np.diff(csr.indptr))
    return perm, rows, where[csr.indices]


def write_text(path, lines):
    """Write an artifact: each line (a str without terminator) ends in LF,
    and the file is UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _cell(value) -> str:
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    value = float(value)
    return "" if value != value else repr(value)


def write_csv(path, header, rows):
    """CSV with a header line.  A float cell (numpy scalars included) is the
    shortest repr that round-trips binary64, NaN an empty cell; an int or a
    str is written as is."""
    write_text(path, [",".join(header),
                      *(",".join(map(_cell, row)) for row in rows)])


def read_csv(path):
    """(header, values) of a ``write_csv`` file: values is a rows x columns
    float array, an empty cell read as NaN; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [(lineno, line.strip().split(","))
                for lineno, line in enumerate(fh, start=2) if line.strip()]
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ValueError(
                f"ragged CSV file at line {lineno}: expected "
                f"{len(header)} columns, got {len(cells)}")
    values = [[float(v) if v else np.nan for v in cells] for _, cells in rows]
    return header, np.array(values, float).reshape(-1, len(header))


def jacobian_fd_check(model: Model, x: np.ndarray, t: float,
                      fd_step: float = 1e-6) -> float:
    """Compare the analytic Jacobian against central finite differences.

    Returns the max entrywise deviation relative to the magnitude of the
    finite-difference matrix.  Step per component: fd_step * (1 + |x_i|).
    """
    jac = dense(model.jacobian(x, t))
    fd = np.empty_like(jac)
    for i in range(model.dim):
        h = fd_step * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        fd[:, i] = (model.velocity(xp, t) - model.velocity(xm, t)) / (2.0 * h)
    scale = max(float(np.max(np.abs(fd))), 1e-12)
    return float(np.max(np.abs(jac - fd))) / scale

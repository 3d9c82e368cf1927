"""Desk-scale benchmark models.

burgers1d      -- nonlinear, non-normal: u_t = -u u_x + nu u_xx
advection_diffusion -- linear with forcing: f = A x + g(t)
gradient_flow_spd   -- f = -A x with A symmetric positive definite

build(spec) returns the one spec.name selects.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .core import Model, SampleMesh


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    n: int = 256
    viscosity: float = 0.005
    speed: float = 1.0
    bc: str = "dirichlet0"
    initial: str = "step"
    spectrum: tuple = None     # gradient_flow_spd eigenvalues
    seed: int = 0
    forcing: object = None     # g(t) -> vector, advection_diffusion only

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("grid size must be at least 4")
        if self.viscosity < 0.0:
            raise ValueError("viscosity must be nonnegative")
        if self.bc not in ("dirichlet0", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")


def _grid(spec):
    if spec.bc == "periodic":
        dx = 1.0 / spec.n
        x = dx * np.arange(spec.n)
    else:
        dx = 1.0 / (spec.n + 1)
        x = dx * np.arange(1, spec.n + 1)
    return x, dx


def _initial_profile(spec):
    x, _ = _grid(spec)
    if spec.initial == "step":
        # smoothed step: rich gradient content, Dirichlet-compatible
        return (1.0 - np.exp(-x / 0.02)) / (1.0 + np.exp((x - 0.3) / 0.02))
    if spec.initial == "sine":
        return np.sin(2.0 * np.pi * x)
    if spec.initial == "gaussian":
        return np.exp(-((x - 0.5) / 0.1) ** 2)
    raise ValueError(f"unknown initial profile {spec.initial!r}")


def burgers1d(spec: BenchmarkSpec) -> Model:
    """Viscous Burgers on [0,1]: central differences for both the
    diffusion and the convective derivative, analytic Jacobian.  Both the
    model and its restriction to some rows evaluate each row from its state
    u and its neighbours' up and um (zero beyond a Dirichlet wall)."""
    n = spec.n
    nu = spec.viscosity
    _, dx = _grid(spec)
    periodic = spec.bc == "periodic"
    from scipy import sparse

    def rates(u, up, um):
        return -u * (up - um) / (2.0 * dx) + nu * (up - 2.0 * u + um) / dx**2

    def tridiagonal(rows, cols, shape, keep):
        """jacobian(u, up, um): a CSR matrix with entries at (rows, cols),
        listed as [diag, upper, lower] where keep says which upper and
        lower entries exist.  The structure is built once from COO with
        entry positions as values: order[k] is the position in that list
        of the k-th stored entry, so every call fills the same structure.
        Each call returns a shallow copy of that one validated matrix with
        data of its own: its indices and indptr are the template's, which
        own their memory and are read-only, so they are keyed by identity
        (``core.JacobianKey``) and no caller can change another's."""
        template = sparse.csr_array((np.arange(len(rows), dtype=float),
                                     (rows, cols)), shape=shape)
        order = template.data.astype(np.intp)
        indices, indptr = template.indices.copy(), template.indptr.copy()
        indices.setflags(write=False)
        indptr.setflags(write=False)
        template.indices, template.indptr = indices, indptr

        def jacobian(u, up, um):
            off = -u / (2.0 * dx)
            data = np.concatenate([-(up - um) / (2.0 * dx) - 2.0 * nu / dx**2,
                                   (off + nu / dx**2)[keep[0]],
                                   (-off + nu / dx**2)[keep[1]]])
            mat = copy.copy(template)
            mat.data = data[order]
            return mat
        return jacobian

    def neighbors(u):
        """(up, um): two views of one copy of u padded by its wrapped ends
        if periodic, else by the walls' zeros."""
        padded = np.empty(n + 2)
        padded[1:-1] = u
        padded[0], padded[-1] = (u[-1], u[0]) if periodic else (0.0, 0.0)
        return padded[2:], padded[:-2]

    # row i couples to i-1, i, i+1 (wrapped if periodic)
    grid = np.arange(n)
    keep = (slice(None), slice(None)) if periodic \
        else (slice(0, n - 1), slice(1, n))
    grid_jacobian = tridiagonal(
        np.concatenate([grid, grid[keep[0]], grid[keep[1]]]),
        np.concatenate([grid, ((grid + 1) % n)[keep[0]],
                        ((grid - 1) % n)[keep[1]]]), (n, n), keep)

    def restrict(rows):
        """The rows' 3-point stencils.  at[:, i] holds the mesh positions
        of row i and of its upper and lower neighbour, or len(mesh) for a
        neighbour beyond a Dirichlet wall: it reads the zero appended after
        the mesh state."""
        rows = np.asarray(rows, np.intp)
        near = np.stack([rows, rows + 1, rows - 1])
        if periodic:
            near %= n
        inside = (near >= 0) & (near < n)
        mesh = np.unique(near[inside])
        at = np.where(inside, np.searchsorted(mesh, near), len(mesh))
        k = np.arange(len(rows))
        jacobian = tridiagonal(
            np.concatenate([k, k[inside[1]], k[inside[2]]]),
            np.concatenate([at[0], at[1][inside[1]], at[2][inside[2]]]),
            (len(rows), len(mesh)), inside[1:])

        def states(u):
            return np.append(u, 0.0)[at]
        return SampleMesh(mesh, lambda u, t: rates(*states(u)),
                          lambda u, t: jacobian(*states(u)))

    return Model(dim=n, velocity=lambda u, t: rates(u, *neighbors(u)),
                 jacobian=lambda u, t: grid_jacobian(u, *neighbors(u)),
                 initial_state=_initial_profile(spec), restrict=restrict)


def advection_diffusion_matrix(spec: BenchmarkSpec) -> np.ndarray:
    """A = -c * upwind first derivative + nu * central second derivative."""
    n = spec.n
    _, dx = _grid(spec)
    c, nu = spec.speed, spec.viscosity
    a = np.zeros((n, n))
    didx = np.arange(n)
    periodic = spec.bc == "periodic"
    # upwind for c > 0: du/dx ~ (u_i - u_{i-1})/dx (mirrored for c < 0)
    for i in range(n):
        ip = (i + 1) % n if periodic else i + 1
        im = (i - 1) % n if periodic else i - 1
        a[i, i] += -abs(c) / dx - 2.0 * nu / dx**2
        if 0 <= im < n:
            if c > 0:
                a[i, im] += c / dx
            a[i, im] += nu / dx**2
        if 0 <= ip < n:
            if c < 0:
                a[i, ip] += -c / dx
            a[i, ip] += nu / dx**2
    return a


def _linear(a, forcing, initial_state) -> Model:
    """The model f = a x + forcing(t) (no forcing when None).  a is made
    read-only, a constant Jacobian keyed by identity; restrict(rows) takes
    the rows' block of a on the columns where they have entries, also
    read-only, plus the forcing's rows."""
    a.setflags(write=False)

    def velocity(x, t):
        fx = a @ x
        if forcing is not None:
            fx = fx + forcing(t)
        return fx

    def restrict(rows):
        rows = np.asarray(rows, np.intp)
        mesh = np.flatnonzero(np.any(a[rows] != 0.0, axis=0))
        block = a[np.ix_(rows, mesh)]
        block.setflags(write=False)

        def rows_velocity(x, t):
            fx = block @ x
            if forcing is not None:
                fx = fx + forcing(t)[rows]
            return fx
        return SampleMesh(mesh, rows_velocity, lambda x, t: block)

    return Model(dim=len(a), velocity=velocity, jacobian=lambda x, t: a,
                 initial_state=initial_state, restrict=restrict)


def advection_diffusion(spec: BenchmarkSpec) -> Model:
    return _linear(advection_diffusion_matrix(spec), spec.forcing,
                   _initial_profile(spec))


def gradient_flow_spd(spec: BenchmarkSpec) -> Model:
    """f = -A x with A = Q diag(spectrum) Q^T, Q a seeded random
    orthogonal matrix."""
    if spec.spectrum is None:
        raise ValueError("gradient_flow_spd needs a spectrum")
    lam = np.asarray(spec.spectrum, float)
    if np.any(lam <= 0.0):
        raise ValueError("spectrum must be strictly positive")
    n = len(lam)
    rng = np.random.default_rng(spec.seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))  # fix QR sign convention
    a = (q * lam) @ q.T  # Q diag(lam) as a column scaling
    return _linear(-0.5 * (a + a.T), None, rng.standard_normal(n))


# the builder each BenchmarkSpec.name selects
_BUILDERS = {"burgers": "burgers1d",
             "advection_diffusion": "advection_diffusion",
             "gradient_flow": "gradient_flow_spd"}


def build(spec: BenchmarkSpec) -> Model:
    """The model spec.name selects.  The builder is looked up by name on
    each call, so a wrapper set on this module in its place is the one
    that runs."""
    if spec.name not in _BUILDERS:
        raise ValueError(f"unknown model {spec.name!r}")
    return globals()[_BUILDERS[spec.name]](spec)

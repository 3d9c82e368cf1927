"""Desk-scale benchmark models.

burgers1d      -- nonlinear, non-normal: u_t = -u u_x + nu u_xx
advection_diffusion -- linear with forcing: f = A x + g(t)
gradient_flow_spd   -- f = -A x with A symmetric positive definite

build(spec) returns the one spec.name selects.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Model


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
    diffusion and the convective derivative, analytic Jacobian."""
    n = spec.n
    nu = spec.viscosity
    _, dx = _grid(spec)
    periodic = spec.bc == "periodic"

    def neighbors(u):
        if periodic:
            up = np.roll(u, -1)
            um = np.roll(u, 1)
        else:
            up = np.concatenate([u[1:], [0.0]])
            um = np.concatenate([[0.0], u[:-1]])
        return up, um

    def velocity(u, t):
        up, um = neighbors(u)
        return -u * (up - um) / (2.0 * dx) + nu * (up - 2.0 * u + um) / dx**2

    # sparsity pattern: row i couples to i-1, i, i+1 (wrapped if periodic)
    from scipy import sparse
    rows = np.arange(n)
    cols_p = (rows + 1) % n
    cols_m = (rows - 1) % n
    keep_p = slice(None) if periodic else slice(0, n - 1)
    keep_m = slice(None) if periodic else slice(1, n)
    pattern = (np.concatenate([rows, rows[keep_p], rows[keep_m]]),
               np.concatenate([rows, cols_p[keep_p], cols_m[keep_m]]))
    # the CSR structure, built once from COO with entry positions as
    # values: order[k] is the position in [diag, upper, lower] of the
    # k-th stored entry, so every call fills the same structure
    csr = sparse.csr_array((np.arange(len(pattern[0]), dtype=float),
                            pattern), shape=(n, n))
    order = csr.data.astype(np.intp)
    indptr, indices = csr.indptr, csr.indices

    def jacobian(u, t):
        """Tridiagonal (plus periodic wrap) Jacobian as a CSR matrix."""
        up, um = neighbors(u)
        diag = -(up - um) / (2.0 * dx) - 2.0 * nu / dx**2
        off = -u / (2.0 * dx)
        data = np.concatenate([diag, (off + nu / dx**2)[keep_p],
                               (-off + nu / dx**2)[keep_m]])
        return sparse.csr_array((data[order], indices.copy(), indptr.copy()),
                                shape=(n, n))

    return Model(dim=n, velocity=velocity, jacobian=jacobian,
                 initial_state=_initial_profile(spec))


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


def advection_diffusion(spec: BenchmarkSpec) -> Model:
    a = advection_diffusion_matrix(spec)
    a.setflags(write=False)  # a constant Jacobian, keyed by identity
    g = spec.forcing

    def velocity(x, t):
        fx = a @ x
        if g is not None:
            fx = fx + g(t)
        return fx

    def jacobian(x, t):
        return a

    return Model(dim=spec.n, velocity=velocity, jacobian=jacobian,
                 initial_state=_initial_profile(spec))


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
    neg_a = -0.5 * (a + a.T)  # built once: both callbacks return -A
    neg_a.setflags(write=False)  # a constant Jacobian, keyed by identity
    x_init = rng.standard_normal(n)

    def velocity(x, t):
        return neg_a @ x

    def jacobian(x, t):
        return neg_a

    return Model(dim=n, velocity=velocity, jacobian=jacobian,
                 initial_state=x_init)


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

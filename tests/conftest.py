import os
from dataclasses import replace

import numpy as np
import pytest

from morrow import benchmodels, fom, galerkin, hyperreduction, lspg, pod
from morrow.core import JacobianKey, Model, SolverOptions, TrialSubspace
from morrow.schemes import ButcherTableau, make_butcher, make_lmm


@pytest.fixture
def tight_opts():
    # equivalence checks need the nonlinear solves converged to roundoff
    return SolverOptions(newton_abs_tol=1e-13, newton_rel_tol=1e-13,
                         max_iters=100)


def linear_model(a, x_init=None, forcing=None):
    a = np.asarray(a, float)
    n = a.shape[0]
    if x_init is None:
        x_init = np.ones(n)

    def velocity(x, t):
        fx = a @ x
        if forcing is not None:
            fx = fx + forcing(t)
        return fx

    return Model(dim=n, velocity=velocity, jacobian=lambda x, t: a,
                 initial_state=np.asarray(x_init, float))


def singular_sparse_model():
    """f(x) = J x with the CSR Jacobian J = diag(1, 2, 0.5): its backward
    Euler Newton matrix I - dt J is exactly singular at dt = 2 (and 1 and
    0.5)."""
    from scipy import sparse
    jac = sparse.csr_array(np.diag([1.0, 2.0, 0.5]))
    return Model(dim=3, velocity=lambda x, t: jac @ x,
                 jacobian=lambda x, t: jac, initial_state=np.ones(3))


def singular_dense_model(dt):
    """f(x) = J x with the read-only J = diag(1/dt, -1): its backward Euler
    Newton matrix I - dt J = diag(0, 1 + dt) is exactly singular."""
    jac = np.diag([1.0 / dt, -1.0])
    jac.setflags(write=False)
    return Model(dim=2, velocity=lambda x, t: jac @ x,
                 jacobian=lambda x, t: jac, initial_state=np.ones(2))


def gauss2_tableau():
    """The two-stage Gauss tableau: fully implicit, so Runge-Kutta solvers
    take the coupled path."""
    r3 = np.sqrt(3.0)
    return ButcherTableau(s=2, a=np.array([[0.25, 0.25 - r3 / 6],
                                           [0.25 + r3 / 6, 0.25]]),
                          b=np.array([0.5, 0.5]),
                          c=np.array([0.5 - r3 / 6, 0.5 + r3 / 6]),
                          name="gauss2")


def random_subspace(n, p, seed=0, reference=None):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    if reference is None:
        reference = np.zeros(n)
    return TrialSubspace(basis=q, reference=np.asarray(reference, float))


# ------------------------------------------------------ Newton-matrix reuse

NEWTON_CASES = ("gradflow-sdirk2", "gradflow-bdf2", "burgers-be-dense",
                "burgers-be-sparse")


def newton_case(name):
    """(model, scheme, dt, T) of a small Newton-matrix reuse case: a linear
    gradient flow (one Newton matrix per step size and coefficient pair) or
    Burgers (a new one on every iteration), whose Jacobian is sparse or
    densified."""
    if name.startswith("gradflow"):
        model = benchmodels.gradient_flow_spd(benchmodels.BenchmarkSpec(
            name="gradient_flow", spectrum=tuple(np.geomspace(0.1, 50.0, 24)),
            seed=3))
        scheme = make_butcher("sdirk2") if name.endswith("sdirk2") \
            else make_lmm("bdf2")
        return model, scheme, 0.01, 0.1
    model = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="burgers", n=32, viscosity=0.02))
    if name.endswith("dense"):
        sparse_jac = model.jacobian
        model = Model(dim=model.dim, velocity=model.velocity,
                      jacobian=lambda x, t: sparse_jac(x, t).toarray(),
                      initial_state=model.initial_state)
    return model, make_lmm("backward_euler"), 2e-3, 0.02


def newton_case_states(name, kind):
    """States of the FOM or of a Galerkin, LSPG (W = I) or GNAT ROM on a
    Newton-matrix reuse case; the ROMs use the FOM's POD basis."""
    model, scheme, dt, T = newton_case(name)
    x = fom.integrate(model, scheme, dt, T).states
    if kind == "fom":
        return x
    sub = pod.compute_pod(pod.SnapshotSet(vectors=(x[1:] - x[0]).T),
                          0.9999, reference=x[0]).basis
    if kind == "galerkin":
        return galerkin.integrate_galerkin(model, sub, scheme, dt, T).states
    W = lspg.scaled_identity(model.dim)
    if kind == "gnat":
        rbasis = hyperreduction.build_residual_basis(
            hyperreduction.collect_residual_snapshots(model, sub, scheme, dt,
                                                      T), 0.9999)
        samples = hyperreduction.select_samples(rbasis, 2 * rbasis.shape[1])
        W = hyperreduction.gnat_weighting(samples, rbasis)
    return lspg.integrate_lspg(model, sub, W, scheme, dt, T)[0].states


def refilled_cubic(n=4):
    """f(x) = -x^3 - x three ways: with a Jacobian written into one buffer
    on every call and returned as is, or as a read-only view of that
    buffer, and with a fresh array per call."""
    def buffered(read_only):
        buf = np.zeros((n, n))
        out = buf.view() if read_only else buf
        out.setflags(write=not read_only)

        def refill(x, t):
            buf[...] = np.diag(-3.0 * x**2 - 1.0)
            return out
        return refill

    x0 = np.linspace(0.5, 1.0, n)
    return [Model(dim=n, velocity=lambda x, t: -x**3 - x, jacobian=jac,
                  initial_state=x0)
            for jac in (buffered(False), buffered(True),
                        lambda x, t: np.diag(-3.0 * x**2 - 1.0))]


@pytest.fixture
def always_miss(monkeypatch):
    """Make every Jacobian content key miss, as if no two Jacobians were
    ever equal: fom.NewtonMatrix rebuilds on every call."""
    monkeypatch.setattr(JacobianKey, "matches", lambda self, jac: False)


def counting(monkeypatch, owner, attr):
    """Replace owner.attr by a wrapper that logs each call; returns the
    log."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def counting_to_file(monkeypatch, owner, attr, path, line=lambda *args: ""):
    """Replace owner.attr by a wrapper that appends line(*args) to the file
    at path on each call, so that calls made in forked worker processes,
    which an in-memory log cannot see, count too; returns a function that
    reads the logged lines."""
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line(*args) + "\n")
        return original(*args, **kwargs)

    def lines():
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()

    monkeypatch.setattr(owner, attr, counted)
    return lines


def logging_velocity(model):
    """model with a velocity that logs the (x, t) of each call, and the
    log."""
    calls = []

    def velocity(x, t):
        calls.append((x.copy(), t))
        return model.velocity(x, t)

    return replace(model, velocity=velocity), calls


def calls_at_base(calls, bases, dt):
    """Per step n >= 1: the logged calls made at (bases[n-1], (n-1) dt)."""
    return [sum(t == (n - 1) * dt and np.array_equal(x, bases[n - 1])
                for x, t in calls) for n in range(1, len(bases))]

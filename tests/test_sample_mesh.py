"""Sample-mesh GNAT: a model's restriction to some rows equals those rows
of the full model, and LSPG steps weighted by a row selection, solved on
those rows only, reproduce the full-row runs."""

from dataclasses import replace

import numpy as np
import pytest

from morrow import benchmodels, fom, hyperreduction, lspg, pod
from morrow.core import dense
from morrow.schemes import make_butcher, make_lmm

from conftest import calls_at_base, gauss2_tableau, logging_velocity


def model_case(name, n=32):
    spec = benchmodels.BenchmarkSpec
    if name.startswith("burgers"):
        bc = name.split("-")[1]
        return benchmodels.burgers1d(spec(
            name="burgers", n=n, viscosity=0.01, bc=bc,
            initial="sine" if bc == "periodic" else "step"))
    if name == "advection_diffusion":
        return benchmodels.advection_diffusion(spec(
            name="advection_diffusion", n=n, viscosity=0.05,
            initial="gaussian",
            forcing=lambda t: np.cos(np.arange(n) + 3.0 * t)))
    return benchmodels.gradient_flow_spd(spec(
        name="gradient_flow", spectrum=tuple(np.geomspace(0.1, 50.0, n)),
        seed=2))


MODELS = ["burgers-dirichlet0", "burgers-periodic", "advection_diffusion",
          "gradient_flow"]


@pytest.mark.parametrize("name", MODELS)
def test_restricted_rows_equal_the_full_rows(name):
    model = model_case(name)
    n = model.dim
    rows = np.array([0, 1, 7, 8, 20, n - 1])  # both walls, adjacent rows
    sampled = model.restrict(rows)
    mesh = sampled.mesh
    assert np.array_equal(mesh, np.unique(mesh)) and set(rows) <= set(mesh)
    rng = np.random.default_rng(5)
    for t in (0.0, 0.3):
        x = rng.standard_normal(n)
        want_f = model.velocity(x, t)[rows]
        got_f = sampled.velocity(x[mesh], t)
        jac = dense(model.jacobian(x, t))[rows]
        got_j = dense(sampled.jacobian(x[mesh], t))
        # the rows depend on the mesh's states only
        assert not np.any(np.delete(jac, mesh, axis=1))
        assert np.array_equal(got_j, jac[:, mesh])
        if name.startswith("burgers"):
            assert np.array_equal(got_f, want_f)
        else:
            assert np.max(np.abs(got_f - want_f)) \
                <= 1e-14 * np.max(np.abs(want_f))
    if name.startswith("burgers"):
        near = {(r + d) % n if name.endswith("periodic") else r + d
                for r in rows for d in (-1, 0, 1)}
        assert set(mesh) == {i for i in near if 0 <= i < n}
        wrap = [0, 1, n - 1] if name.endswith("periodic") else [0, 1]
        assert list(model.restrict([0]).mesh) == wrap
    else:
        # a constant block: one read-only array that owns its memory
        block = sampled.jacobian(x[mesh], 0.0)
        assert block is sampled.jacobian(x[mesh], 1.0)
        assert not block.flags.writeable and block.flags.owndata


@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_shifted_sampled_rows_are_rows_of_the_shifted_csr(bc):
    model = model_case(f"burgers-{bc}")
    rows = np.array([0, 5, 6, model.dim - 1])
    sampled = model.restrict(rows)
    at = np.searchsorted(sampled.mesh, rows)
    x = np.random.default_rng(1).standard_normal(model.dim)
    phi = np.linalg.qr(np.random.default_rng(2).standard_normal(
        (model.dim, 4)))[0]
    for c0, c1 in ((1.0, 2e-3), (1.5, 1e-3 / 1.5)):
        full = fom.shifted(c0, c1, model.jacobian(x, 0.0))
        part = fom.shifted(c0, c1, sampled.jacobian(x[sampled.mesh], 0.0),
                           at)
        assert np.array_equal(part.toarray(),
                              full.toarray()[rows][:, sampled.mesh])
        assert np.array_equal(part @ phi[sampled.mesh], (full @ phi)[rows])


SCHEMES = {"backward_euler": (make_lmm, 1e-3),
           "bdf2": (make_lmm, 1e-3),
           "forward_euler": (make_lmm, 2e-4),
           "sdirk2": (make_butcher, 1e-3),
           "rk4": (make_butcher, 2e-4)}


def gnat_case(name, scheme_name, steps=30):
    """(model, sub, W, scheme, dt, T) of a GNAT ROM trained on the model's
    own full-row W = I run."""
    model = model_case(name, n=48)
    make, dt = SCHEMES[scheme_name]
    scheme, T = make(scheme_name), steps * dt
    x = fom.integrate(model, scheme, dt, T).states
    sub = pod.compute_pod(pod.SnapshotSet(vectors=(x[1:] - x[0]).T),
                          0.9999, reference=x[0]).basis
    rbasis = hyperreduction.build_residual_basis(
        hyperreduction.collect_residual_snapshots(model, sub, scheme, dt, T),
        0.9999)
    samples = hyperreduction.select_samples(rbasis, 2 * rbasis.shape[1])
    return (model, sub, hyperreduction.gnat_weighting(samples, rbasis),
            scheme, dt, T)


@pytest.mark.parametrize("scheme_name", list(SCHEMES))
@pytest.mark.parametrize("name", MODELS)
def test_sample_mesh_gnat_matches_full_rows(name, scheme_name):
    model, sub, W, scheme, dt, T = gnat_case(name, scheme_name)
    meshes = []

    def restrict(rows):
        meshes.append(model.restrict(rows).mesh)
        return model.restrict(rows)

    got, reports = lspg.integrate_lspg(replace(model, restrict=restrict),
                                       sub, W, scheme, dt, T)
    want, want_reports = lspg.integrate_lspg(replace(model, restrict=None),
                                             sub, W, scheme, dt, T)
    assert len(meshes) == 1  # the mesh path ran
    # Burgers' rows are computed row-locally, bitwise; what may round
    # differently is the lift x0[mesh] + Phi[mesh] y, a BLAS product whose
    # rows need not round like those of Phi y (these cases are bitwise on
    # the builds checked).  The dense models' row block of A does too.
    tol = 1e-13 if name.startswith("burgers") else 1e-12
    scale = np.max(np.abs(want.states))
    assert np.max(np.abs(got.states - want.states)) <= tol * scale
    if name.startswith("burgers"):
        assert len(meshes[0]) < model.dim
    assert [r.iterations for r in reports] \
        == [r.iterations for r in want_reports]


@pytest.mark.parametrize("scheme_name", ["sdirk2", "backward_euler"])
def test_gnat_step_evaluates_the_full_velocity_only_for_the_warm_start(
        scheme_name):
    # a Runge-Kutta step lifts its base state and evaluates f there once,
    # for the warm start Phi^T f(x^{n-1}); a multistep step never does
    model, sub, W, scheme, dt, T = gnat_case("gradient_flow", scheme_name)
    logged, calls = logging_velocity(model)  # keeps model.restrict
    yhats = lspg.integrate_lspg(logged, sub, W, scheme, dt, T)[0].states
    steps = round(T / dt)
    if scheme_name == "sdirk2":
        bases = [sub.reference + sub.basis @ y for y in yhats]
        assert calls_at_base(calls, bases, dt) == [1] * steps
    assert len(calls) == (steps if scheme_name == "sdirk2" else 0)


def forbidden(*args):
    raise AssertionError("this run must stay on all rows")


@pytest.mark.parametrize("run", ["identity", "callback", "coupled"])
def test_full_row_runs_never_restrict(run):
    model, sub, W, scheme, dt, T = gnat_case("burgers-dirichlet0", "sdirk2")
    kwargs = {}
    if run == "identity":
        W = lspg.scaled_identity(model.dim)
    elif run == "callback":
        kwargs["callback"] = lambda r: None
    else:
        scheme = gauss2_tableau()
    got = lspg.integrate_lspg(replace(model, restrict=forbidden),
                              sub, W, scheme, dt, T, **kwargs)[0]
    want = lspg.integrate_lspg(replace(model, restrict=None), sub, W,
                               scheme, dt, T, **kwargs)[0]
    assert np.array_equal(got.states, want.states)
    assert np.array_equal(got.stages, want.stages)


def test_mesh_smaller_than_the_basis_stays_on_full_rows():
    # one collocation row: its 3-state mesh cannot carry p = 4 modes, and
    # the step is underdetermined on either path
    model, sub, _, scheme, dt, T = gnat_case("burgers-dirichlet0",
                                             "backward_euler")
    phi = np.linalg.qr(np.random.default_rng(3).standard_normal(
        (model.dim, 4)))[0]

    def restrict(rows):
        sampled = model.restrict(rows)
        assert len(sampled.mesh) == 3
        return sampled._replace(velocity=forbidden,
                                jacobian=forbidden)

    with pytest.raises(lspg.GaussNewtonError,
                       match="1 weighted rows for 4 unknowns") as err:
        lspg.integrate_lspg(replace(model, restrict=restrict),
                            replace(sub, basis=phi),
                            lspg.collocation(model.dim, [10]), scheme, dt, T)
    assert err.value.time_index == 1

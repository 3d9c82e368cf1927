"""Sparse Jacobian operator layer: a model whose Jacobian is a
scipy.sparse matrix must give the same trajectories and bound terms as the
same model returning dense arrays, and dense-only runs must never load
scipy.sparse."""

import os
import subprocess
import sys

import numpy as np
import pytest

from morrow import benchmodels as bm
from morrow import bounds, fom, galerkin, hyperreduction, lspg, pod
from morrow.core import Model, SolverOptions, frozen, norm2, norm2_at_most
from morrow.schemes import ButcherTableau, make_lmm

from conftest import counting, gauss2_tableau, random_subspace

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def densified(model):
    return Model(dim=model.dim, velocity=model.velocity,
                 jacobian=lambda x, t: model.jacobian(x, t).toarray(),
                 initial_state=model.initial_state)


def rel_diff(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_burgers_jacobian_is_sparse_and_matches_dense(bc):
    m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=16, viscosity=0.01, bc=bc))
    jac = m.jacobian(m.initial_state + 0.1, 0.0)
    assert not isinstance(jac, np.ndarray)
    assert jac.nnz == (48 if bc == "periodic" else 46)
    dense = jac.toarray()
    assert (dense[0, -1] != 0.0) == (bc == "periodic")
    assert np.count_nonzero(np.triu(dense, 2)[:-1, :-1]) == 0


def coo_burgers_jacobian(spec, u):
    """Reference: Burgers' Jacobian entry by entry, assembled from COO."""
    from scipy import sparse
    n, nu = spec.n, spec.viscosity
    _, dx = bm._grid(spec)
    periodic = spec.bc == "periodic"
    rows, cols, vals = [], [], []
    for i in range(n):
        ip, im = (i + 1) % n, (i - 1) % n
        up = u[ip] if periodic or i + 1 < n else 0.0
        um = u[im] if periodic or i > 0 else 0.0
        entries = [(i, -(up - um) / (2.0 * dx) - 2.0 * nu / dx**2)]
        if periodic or i + 1 < n:
            entries.append((ip, -u[i] / (2.0 * dx) + nu / dx**2))
        if periodic or i > 0:
            entries.append((im, u[i] / (2.0 * dx) + nu / dx**2))
        for j, v in entries:
            rows.append(i), cols.append(j), vals.append(v)
    return sparse.csr_array((np.array(vals), (rows, cols)), shape=(n, n))


def csr_arrays(mat):
    return mat.indptr, mat.indices, mat.data


@pytest.mark.parametrize("n", [4, 5, 16, 64, 513])
@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_burgers_jacobian_is_bitwise_the_coo_assembly(bc, n):
    spec = bm.BenchmarkSpec(name="b", n=n, viscosity=0.01, bc=bc)
    m = bm.burgers1d(spec)
    u = m.initial_state + 0.3 * np.sin(np.arange(n) * 0.7)
    ref = coo_burgers_jacobian(spec, u)
    first = m.jacobian(u, 0.0)
    for got, want in zip(csr_arrays(first), csr_arrays(ref)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # every call shares one read-only pattern and owns its data, so a
    # caller cannot change the next call's matrix through the one it got
    second = m.jacobian(u, 0.0)
    assert second.indptr is first.indptr and second.indices is first.indices
    for arr in (first.indptr, first.indices):
        with pytest.raises(ValueError):
            arr[:] = 0
    first.data[:] = 0
    for mat in (second, m.jacobian(u, 0.0)):
        for got, want in zip(csr_arrays(mat), csr_arrays(ref)):
            assert np.array_equal(got, want)


def burgers_mesh(bc, mesh, n=64):
    """(model, rows, cols, jacobian): Burgers' full Jacobian (rows None,
    every column), or that of a GNAT sample mesh whose rows include the
    periodic wrap and both Dirichlet walls, with the rows' positions on
    the mesh."""
    m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=n, viscosity=0.01, bc=bc,
                                      initial="sine"))
    if mesh == "full":
        return m, None, np.arange(n), m.jacobian
    sampled = m.restrict([0, 5, 6, n - 1])
    return (m, np.searchsorted(sampled.mesh, [0, 5, 6, n - 1]),
            sampled.mesh, sampled.jacobian)


@pytest.mark.parametrize("mesh", ["full", "sampled"])
@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_burgers_jacobians_are_valid_canonical_csr(bc, mesh):
    # each call returns a copy of one template with new data: it must
    # still be a CSR matrix scipy accepts, on the full grid and on a sample
    # mesh
    m, _, cols, jacobian = burgers_mesh(bc, mesh)
    rng = np.random.default_rng(3)
    jacs = [jacobian(m.initial_state[cols] + 0.1 * rng.standard_normal(
        len(cols)), 0.0) for _ in range(3)]
    for jac in jacs:
        assert jac.format == "csr" and jac.has_canonical_format
        assert jac.indptr is jacs[0].indptr and frozen(jac.indptr)
        assert jac.indices is jacs[0].indices and frozen(jac.indices)
    assert len({id(jac.data) for jac in jacs}) == len(jacs)
    for jac in jacs:
        jac.check_format(full_check=True)


@pytest.mark.parametrize("case", [
    "dirichlet0-64", "dirichlet0-512", "periodic-64", "periodic-512",
    "random", "zero", "one-by-one"])
def test_sparse_norm2_matches_the_dense_svd(case):
    from scipy import sparse
    if case == "random":  # no band structure for the reordering to find
        mat = sparse.random_array((120, 120), density=0.05, format="csr",
                                  rng=np.random.default_rng(4))
    elif case == "zero":  # the tolerance below is then exactly 0
        mat = sparse.csr_array((7, 7))
    elif case == "one-by-one":
        mat = sparse.csr_array(np.array([[-3.0]]))
    else:
        bc, n = case.split("-")
        m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=int(n), bc=bc,
                                          viscosity=0.01))
        rng = np.random.default_rng(1)
        mat = m.jacobian(m.initial_state + 0.1 * rng.standard_normal(m.dim),
                         0.0)
    want = np.linalg.norm(mat.toarray(), 2)
    got = norm2(mat)
    assert abs(got - want) <= 1e-13 * want
    assert norm2(mat) == got  # repeatable bitwise
    # the Cholesky certificate, on the sparse matrix and its dense copy
    for m in (mat, mat.toarray()):
        assert norm2_at_most(m, want * (1 + 1e-13) or 1.0)
        assert want == 0.0 or not norm2_at_most(m, want * (1 - 1e-13))


@pytest.mark.parametrize("scheme", ["backward_euler", "bdf2"])
@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_sparse_and_dense_jacobians_agree(bc, scheme):
    spec = bm.BenchmarkSpec(name="b", n=48, viscosity=0.01, bc=bc,
                            initial="step" if bc == "dirichlet0" else "sine")
    m_sparse = bm.burgers1d(spec)
    m_dense = densified(m_sparse)
    sch = make_lmm(scheme)
    dt, T, opts = 2e-3, 0.024, SolverOptions()

    ref = fom.integrate(m_dense, sch, dt, T, opts)
    assert rel_diff(fom.integrate(m_sparse, sch, dt, T, opts).states,
                    ref.states) <= 1e-12
    x = np.array(ref.states)
    sub = pod.compute_pod(pod.SnapshotSet(vectors=(x[1:] - x[0]).T), 0.9999,
                          reference=x[0]).basis

    # the sampled rows come from one training run: greedy selection is
    # discontinuous in roundoff, the online GNAT solve is what is compared
    snaps = hyperreduction.collect_residual_snapshots(m_dense, sub, sch, dt,
                                                      T, opts)
    rbasis = hyperreduction.build_residual_basis(snaps, 0.9999)
    w_gnat = hyperreduction.gnat_weighting(
        hyperreduction.select_samples(rbasis, 2 * rbasis.shape[1]), rbasis)
    w_ident = lspg.scaled_identity(m_sparse.dim)
    samples = [x[0], x[-1], x[len(x) // 2]]
    kappa = bounds.estimate_lipschitz(m_dense, samples, [0.0])
    # the sparse 2-norm comes from a banded eigenvalue, not the dense SVD
    assert abs(bounds.estimate_lipschitz(m_sparse, samples, [0.0])
               - kappa) <= 1e-13 * kappa

    out = {}
    for tag, m in (("sparse", m_sparse), ("dense", m_dense)):
        gal = galerkin.integrate_galerkin(m, sub, sch, dt, T, opts)
        lsp, _ = lspg.integrate_lspg(m, sub, w_ident, sch, dt, T, opts)
        gnat, _ = lspg.integrate_lspg(m, sub, w_gnat, sch, dt, T, opts)
        local = {kind: bounds.local_aposteriori_lmm(
            traj, kind, m, sub, sch, kappa, w_ident)
            for kind, traj in (("galerkin", gal), ("lspg", lsp))}
        out[tag] = dict(gal=gal.states, lspg=lsp.states, gnat=gnat.states,
                        local=local)
    sp, de = out["sparse"], out["dense"]
    for key in ("gal", "lspg", "gnat"):
        assert rel_diff(sp[key], de[key]) <= 1e-12, key
    for kind in ("galerkin", "lspg"):
        for a, b in zip(sp["local"][kind], de["local"][kind]):
            assert rel_diff(a.terms, b.terms) <= 1e-12
            assert abs(a.proj_norm - b.proj_norm) <= 1e-12 * b.proj_norm
        glob = [bounds.global_aposteriori_lmm(out[t]["local"][kind], kind)
                for t in ("sparse", "dense")]
        assert rel_diff(glob[0].per_step_bound,
                        glob[1].per_step_bound) <= 1e-12


def test_sparse_coupled_rk_and_auxiliary_bound_match_dense(tight_opts):
    s3 = np.sqrt(3.0)
    gauss2 = ButcherTableau(
        s=2, a=np.array([[0.25, 0.25 - s3 / 6], [0.25 + s3 / 6, 0.25]]),
        b=np.array([0.5, 0.5]), c=np.array([0.5 - s3 / 6, 0.5 + s3 / 6]),
        name="gauss2")
    m_sparse = bm.burgers1d(bm.BenchmarkSpec(name="b", n=32, viscosity=0.01))
    m_dense = densified(m_sparse)
    dt, T = 2e-3, 0.01
    trajs = [fom.integrate(m, gauss2, dt, T, tight_opts)
             for m in (m_sparse, m_dense)]
    assert rel_diff(trajs[0].states, trajs[1].states) <= 1e-12

    x = np.array(trajs[1].states)
    sub = pod.compute_pod(pod.SnapshotSet(vectors=(x[1:] - x[0]).T), 0.9999,
                          reference=x[0]).basis
    w = lspg.scaled_identity(32)
    rom, _ = lspg.integrate_lspg(m_dense, sub, w, make_lmm("backward_euler"),
                                 dt, T, tight_opts)
    reps = [bounds.auxiliary_increment_bound(m, rom, sub, dt, 10.0,
                                             tight_opts)
            for m in (m_sparse, m_dense)]
    assert rel_diff(reps[0].mu, reps[1].mu) <= 1e-10


def test_dense_runs_do_not_import_scipy_sparse(tmp_path):
    # an LMM LSPG run, its bounds (kappa estimate and trajectory check) and
    # the sdirk2 GNAT sweep of the benchmark
    configs = []
    for scheme in ("backward_euler", "sdirk2"):
        path = tmp_path / f"{scheme}.ini"
        path.write_text(
            "[model]\nname = gradient_flow\nspectrum = 0.5,1.0,2.0,4.0,8.0\n"
            f"[time]\nscheme = {scheme}\ndt = 0.01\nT = 0.05\n"
            "[pod]\nnu = 0.9999\n[rom]\nkind = lspg\n")
        configs.append(str(path))
    code = (
        "import sys\n"
        "from morrow import cli\n"
        f"out, lmm, rk = {str(tmp_path)!r}, {configs[0]!r}, {configs[1]!r}\n"
        "assert cli.main(['rom', '--config', lmm, '--out', out + '/rom']) "
        "== 0\n"
        "assert cli.main(['bounds', '--config', lmm, '--out', out + '/b']) "
        "== 0\n"
        "assert cli.main(['sweep', '--config', rk, '--out', out + '/sw',"
        " '--dt', '0.01,0.005', '--rom', 'gnat', '--parallel', '2']) == 0\n"
        "print('scipy.sparse' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def burgers_jacobian(bc, n=64, seed=1):
    m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=n, viscosity=0.01, bc=bc,
                                      initial="sine"))
    rng = np.random.default_rng(seed)
    return m.jacobian(m.initial_state + 0.1 * rng.standard_normal(n), 0.0)


def missing_diagonal_jacobian():
    from scipy import sparse
    mat = burgers_jacobian("dirichlet0", n=16).toarray()
    mat[5, 5] = 0.0
    return sparse.csr_array(mat)  # stores no (5, 5) entry


@pytest.mark.parametrize("case", ["dirichlet0", "periodic", "block",
                                  "missing-diagonal"])
def test_shifted_is_the_sparse_arithmetic_bitwise(case):
    from scipy import sparse
    if case == "block":  # the coupled two-stage Gauss Newton matrix
        jacs = [burgers_jacobian("periodic", seed=s) for s in (1, 2)]
        jac = fom._block([[2e-3 * a_ij * j for a_ij in a_i]
                          for a_i, j in zip(gauss2_tableau().a, jacs)])
    elif case == "missing-diagonal":
        jac = missing_diagonal_jacobian()
        assert jac.nnz == 3 * 16 - 3
    else:
        jac = burgers_jacobian(case)
    n = jac.shape[0]
    basis = np.random.default_rng(0).standard_normal((n, 5))
    for c0, c1 in ((1.0, 2e-3), (1.5, 1e-3 / 1.5), (1.0, 1.0)):
        want = c0 * sparse.eye_array(n, format="csr") - c1 * jac
        got = fom.shifted(c0, c1, jac)
        assert not isinstance(got, np.ndarray)
        assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(got @ basis, want @ basis)
        # a second call gives the same: the first left J's entries alone
        assert np.array_equal(fom.shifted(c0, c1, jac).toarray(),
                              want.toarray())


def pivoting_matrix(n=40):
    """J = I + R with R sparse, nonsymmetric and zero on the diagonal, so
    I - J = -R has a zero diagonal: its LU needs row exchanges."""
    from scipy import sparse
    rng = np.random.default_rng(7)
    r = sparse.random_array((n, n), density=0.08, format="lil", rng=rng)
    for i in range(n):  # a cyclic shift keeps R regular
        r[i, (i + 1) % n] = 2.0 + r[i, (i + 1) % n]
        r[i, i] = 0.0
    return sparse.csr_array(sparse.eye_array(n) + r)


@pytest.mark.parametrize("case", ["pivoting", "periodic", "one-by-one"])
def test_band_lu_matches_the_dense_solve(case):
    from scipy import sparse
    if case == "pivoting":
        jac, c0, c1 = pivoting_matrix(), 1.0, 1.0
        assert not np.any(fom.shifted(c0, c1, jac).diagonal())
    elif case == "periodic":
        jac, c0, c1 = burgers_jacobian("periodic", n=257), 1.5, 2e-3
    else:
        jac, c0, c1 = sparse.csr_array(np.array([[-3.0]])), 1.0, 0.5
    n = jac.shape[0]
    mat = fom.shifted(c0, c1, jac).toarray()
    rhs = np.random.default_rng(3).standard_normal((n, 2))
    newton = fom.NewtonMatrix()
    for b in (rhs[:, 0], rhs):
        want = np.linalg.solve(mat, b)
        got = newton.solve(c0, c1, jac, b)
        assert got.shape == b.shape
        assert rel_diff(got, want) <= 1e-12


def test_band_ordering_is_kept_per_pattern(monkeypatch):
    from scipy.sparse import csgraph
    orderings = counting(monkeypatch, csgraph, "reverse_cuthill_mckee")
    for bc in ("dirichlet0", "periodic"):
        m = bm.burgers1d(bm.BenchmarkSpec(name="b", n=64, viscosity=0.01,
                                          bc=bc, initial="sine"))
        orderings.clear()
        traj = fom.integrate(m, make_lmm("bdf2"), 2e-3, 0.02)
        assert len(orderings) == 1  # for 10 steps of Newton iterations
        assert rel_diff(traj.states, fom.integrate(
            densified(m), make_lmm("bdf2"), 2e-3, 0.02).states) <= 1e-12
    # one NewtonMatrix: the same pattern with new entries is not ordered
    # again, a new pattern is
    newton, rhs = fom.NewtonMatrix(), np.ones(64)
    orderings.clear()
    for bc, seed in (("dirichlet0", 1), ("dirichlet0", 2), ("periodic", 1),
                     ("periodic", 2), ("dirichlet0", 3)):
        newton.solve(1.0, 2e-3, burgers_jacobian(bc, seed=seed), rhs)
    assert len(orderings) == 3


COEFFS = ((1.0, 2e-3), (1.5, 1e-3 / 1.5), (1.0, 1.0))


def shifted_solve(c0, c1, jac, rhs):
    """The reference solve: the band LU of ``fom.shifted``'s matrix."""
    mat = fom.shifted(c0, c1, jac)
    return fom._band_lu(fom._band(mat), mat)(rhs)


def check_against_shifted(newton, c0, c1, jac, rows=None):
    """Assert that newton's product with a basis and, without rows, its
    solve are bitwise those formed from ``fom.shifted``'s matrix; returns
    how many times newton called shifted for them."""
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((jac.shape[1], 5))
    rhs = rng.standard_normal(jac.shape[0])
    want = fom.shifted(c0, c1, jac, rows) @ basis
    solution = None if rows is not None else shifted_solve(c0, c1, jac, rhs)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fom, "shifted", lambda *args, f=fom.shifted:
                   calls.append(args) or f(*args))
        assert np.array_equal(newton.times(c0, c1, jac, basis), want)
        if rows is None:
            assert np.array_equal(newton.solve(c0, c1, jac, rhs), solution)
    return len(calls)


@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
@pytest.mark.parametrize("mesh", ["full", "sampled"])
def test_kept_structure_is_bitwise_the_shifted_matrix(bc, mesh):
    # one NewtonMatrix, new entries on one pattern: each (c0 I - c1 J) is
    # J's data shifted into the kept shell, no scipy.sparse arithmetic
    m, rows, cols, jacobian = burgers_mesh(bc, mesh)
    newton = fom.NewtonMatrix(rows)
    rng = np.random.default_rng(2)
    for c0, c1 in COEFFS + COEFFS:
        x = m.initial_state + 0.1 * rng.standard_normal(64)
        assert check_against_shifted(newton, c0, c1, jacobian(x[cols], 0.0),
                                     rows) == 0


def test_refilled_csr_buffer_is_refactored(monkeypatch):
    from scipy import sparse
    from scipy.sparse import csgraph
    jac = sparse.csr_array(np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 0.0],
                                     [0.0, 0.0, 4.0]]))
    factors = counting(monkeypatch, fom, "dgbtrf")
    orderings = counting(monkeypatch, csgraph, "reverse_cuthill_mckee")
    newton, rhs, ordered = fom.NewtonMatrix(), np.ones(3), []
    for refill in (lambda: None,
                   lambda: jac.data.__setitem__(slice(None), [5, 6, 7, 8]),
                   # entry (0, 1) moves to (0, 2): the same nnz, sorted
                   lambda: jac.indices.__setitem__(1, 2)):
        refill()
        want = shifted_solve(1.0, 0.1, jac, rhs)
        assert np.allclose(want, np.linalg.solve(
            np.eye(3) - 0.1 * jac.toarray(), rhs))
        factors.clear()
        orderings.clear()
        assert np.array_equal(newton.solve(1.0, 0.1, jac, rhs), want)
        assert len(factors) == 1
        ordered.append(len(orderings))
    assert ordered == [1, 0, 1]  # a new pattern is ordered again


def not_canonical_jacobian():
    """A Burgers CSR Jacobian with each row's entries in reverse order."""
    from scipy import sparse
    jac = burgers_jacobian("dirichlet0", n=16)
    order = np.concatenate([np.arange(a, b)[::-1] for a, b
                            in zip(jac.indptr[:-1], jac.indptr[1:])])
    return sparse.csr_array((jac.data[order], jac.indices[order], jac.indptr),
                            shape=jac.shape)


def test_jacobian_that_cannot_be_refilled_takes_shifted():
    # a new pattern rebuilds the kept structure; one that misses an
    # identity entry or is not in canonical form is shifted by scipy.sparse
    # arithmetic, once for the product and once for the factor
    newton = fom.NewtonMatrix()
    blocks = [burgers_jacobian("periodic", seed=s) for s in (1, 2)]
    block = fom._block([[2e-3 * a_ij * j for a_ij in a_i]
                        for a_i, j in zip(gauss2_tableau().a, blocks)])
    assert not not_canonical_jacobian().has_canonical_format
    for jac, calls in ((burgers_jacobian("dirichlet0", n=16), 0),
                       (missing_diagonal_jacobian(), 2),
                       (burgers_jacobian("dirichlet0", n=16, seed=2), 0),
                       (not_canonical_jacobian(), 2),
                       # the coupled Runge-Kutta matrix is canonical and
                       # stores its diagonal: it is refilled like any J
                       (block, 0),
                       (burgers_jacobian("dirichlet0", n=16, seed=3), 0)):
        for c0, c1 in COEFFS:
            assert check_against_shifted(newton, c0, c1, jac) == calls


@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
@pytest.mark.parametrize("mesh", ["full", "sampled"])
def test_burgers_pattern_is_matched_by_identity(monkeypatch, bc, mesh):
    # Burgers returns one read-only pattern, so a NewtonMatrix builds its
    # _Pattern once and compares only J's data by content (on a repeated
    # (c0, c1))
    m, rows, cols, jacobian = burgers_mesh(bc, mesh)
    patterns = counting(monkeypatch, fom, "_Pattern")
    compared = []
    monkeypatch.setattr(np, "array_equal", lambda a, b, f=np.array_equal:
                        compared.append(a.dtype.kind) or f(a, b))
    newton, rng = fom.NewtonMatrix(rows), np.random.default_rng(2)
    basis = rng.standard_normal((len(cols), 4))
    for c0, c1 in COEFFS + COEFFS:
        jac = jacobian(m.initial_state[cols]
                       + 0.1 * rng.standard_normal(len(cols)), 0.0)
        newton.times(c0, c1, jac, basis)
        newton.times(c0, c1, jac, basis)
        if rows is None:
            newton.solve(c0, c1, jac, np.ones(64))
    assert len(patterns) == 1
    assert set(compared) == {"f"}


def galerkin_of(jacobian, n, p=4):
    """Galerkin's reduced model of an n-state model with the given
    jacobian, on a random basis about 0, and the basis."""
    sub = random_subspace(n, p, seed=6)
    return galerkin.make_galerkin_model(Model(
        dim=n, velocity=lambda x, t: x, jacobian=jacobian,
        initial_state=np.zeros(n)), sub), sub.basis


@pytest.mark.parametrize("bc", ["dirichlet0", "periodic"])
def test_galerkin_sparse_reduced_jacobian_is_bitwise_the_projection(
        monkeypatch, bc):
    from scipy import sparse
    shells = counting(monkeypatch, sparse, "csc_array")
    current = []
    gm, basis = galerkin_of(lambda x, t: current[0], 128)
    for seed in range(6):
        current[:] = [burgers_jacobian(bc, n=128, seed=seed)]
        assert np.array_equal(gm.jacobian(np.zeros(4), 0.0),
                              basis.T @ current[0] @ basis)
    assert len(shells) == 1  # kept while the pattern repeats


def test_galerkin_reduced_jacobian_follows_a_changing_pattern():
    # a new nnz, other formats and a non-canonical CSR, then a buffer
    # whose indices are refilled in place between calls
    buffer = burgers_jacobian("dirichlet0", n=16, seed=4).copy()

    def refilled():
        buffer.indices[1] = 2  # entry (0, 1) moves to (0, 2), still sorted
        return buffer
    current = []
    gm, basis = galerkin_of(lambda x, t: current[0], 16)
    for make in (lambda: burgers_jacobian("dirichlet0", n=16),
                 lambda: burgers_jacobian("periodic", n=16),
                 lambda: burgers_jacobian("dirichlet0", n=16, seed=2).tocsc(),
                 lambda: burgers_jacobian("dirichlet0", n=16, seed=3).tocoo(),
                 not_canonical_jacobian,
                 lambda: burgers_jacobian("dirichlet0", n=16, seed=5),
                 lambda: buffer, refilled):
        jac = make()
        current[:] = [jac]
        assert np.array_equal(gm.jacobian(np.zeros(4), 0.0),
                              basis.T @ jac @ basis)

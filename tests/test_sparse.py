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
from morrow.core import Model, SolverOptions
from morrow.schemes import ButcherTableau, make_lmm

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
    assert bounds.estimate_lipschitz(m_sparse, samples, [0.0]) == kappa

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
    # an LMM LSPG run and the sdirk2 GNAT sweep of the benchmark
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

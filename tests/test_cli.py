import json
import os
import re
import sys

import numpy as np
import pytest

from morrow import analysis, benchmodels, bounds, cli, fom, hyperreduction, \
    pod
from morrow.core import reconstruct, write_csv
from morrow.schemes import make_lmm

from conftest import counting, singular_sparse_model


BASE = """\
[model]
name = advection_diffusion
n = 24
viscosity = 0.05
initial = gaussian

[time]
scheme = backward_euler
dt = 0.004
T = 0.04

[pod]
nu = 0.9999

[output]
probe = 5
"""


def write_config(tmp_path, body, name="exp.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def test_usage_error_without_config(capsys):
    assert cli.main(["fom"]) == 1
    assert "requires --config" in capsys.readouterr().err


def test_unknown_subcommand_exit_1():
    assert cli.main(["frobnicate"]) == 1


def test_fom_writes_trajectory_and_manifest(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert cli.main(["fom", "--config", cfg, "--out", out]) == 0
    traj = fom.read_trajectory_csv(os.path.join(out, "fom_trajectory.csv"))
    assert len(traj.states) == 11
    assert np.asarray(traj.states[0]).shape == (24,)
    snaps = pod.read_snapshots_csv(os.path.join(out, "snapshots.csv"))
    assert snaps.vectors.shape == (24, 10)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert set(manifest["artifacts"]) == {"fom_trajectory.csv",
                                          "snapshots.csv"}
    timings = json.load(open(os.path.join(out, "timings.json")))
    assert "fom" in timings


@pytest.mark.parametrize("kind", ["galerkin", "lspg", "gnat"])
def test_rom_pipeline_artifacts(tmp_path, kind):
    cfg = write_config(tmp_path, BASE + f"\n[rom]\nkind = {kind}\n")
    out = str(tmp_path / f"out_{kind}")
    assert cli.main(["rom", "--config", cfg, "--out", out]) == 0
    names = set(os.listdir(out))
    assert {"fom_trajectory.csv", "rom_trajectory.csv", "basis.csv",
            "singular_values.csv", "manifest.json"} <= names
    if kind in ("lspg", "gnat"):
        assert "gn_diagnostics.csv" in names
    if kind == "gnat":
        assert "samples.txt" in names
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["notes"]["probe_error"] < 0.1
    assert manifest["notes"]["rom_unstable"] is False


def test_pod_from_snapshot_file(tmp_path):
    rng = np.random.default_rng(0)
    snaps = pod.SnapshotSet(vectors=rng.standard_normal((12, 6)))
    spath = tmp_path / "snaps.csv"
    pod.write_snapshots_csv(snaps, spath)
    out = str(tmp_path / "out")
    assert cli.main(["pod", "--snapshots", str(spath), "--nu", "1.0",
                     "--out", out]) == 0
    lines = (tmp_path / "out" / "basis.csv").read_text().splitlines()
    assert lines[0] == ",".join(f"phi_{j}" for j in range(6))
    assert len(lines) == 13


def test_sweep_rows_and_schema(tmp_path):
    cfg = write_config(tmp_path, BASE.replace("dt = 0.004", "dt = 0.004")
                       + "\n[bounds]\n")
    out = str(tmp_path / "out")
    code = cli.main(["sweep", "--config", cfg, "--out", out,
                     "--dt", "0.008,0.004,0.002"])
    assert code == 0
    sweep = analysis.read_sweep_csv(os.path.join(out, "sweep.csv"))
    assert list(sweep.dt) == [0.008, 0.004, 0.002]
    assert np.all(sweep.stable)
    assert np.all(np.isfinite(sweep.error))
    # errors against the finest-grid reference shrink with dt
    assert sweep.error[0] > sweep.error[-1]
    # bound present wherever the small-dt hypothesis holds; always at the
    # finest grid point, and never negative
    finite = np.isfinite(sweep.bound)
    assert finite[-1]
    assert np.all(sweep.bound[finite] >= 0.0)


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out,
                     "--dt", "0.004,0.008,0.002"]) == 1
    assert "monotone" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", cfg, "--out", out,
                     "--dt", "0.008,0.003"]) == 1
    assert "not a multiple" in capsys.readouterr().err


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "parallel")
    grid = "0.008,0.004,0.002"
    assert cli.main(["sweep", "--config", cfg, "--out", out1,
                     "--dt", grid]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", out2,
                     "--dt", grid, "--parallel", "3"]) == 0
    a = open(os.path.join(out1, "sweep_notime.csv")).read()
    b = open(os.path.join(out2, "sweep_notime.csv")).read()
    assert a == b


def test_bounds_subcommand_report(tmp_path):
    cfg = write_config(tmp_path, BASE + "\n[bounds]\nkappa = 60.0\n")
    out = str(tmp_path / "out")
    assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "bound_report.csv")).read().splitlines()
    assert lines[0] == "n,term_projection,coeff,local_bound,global_bound"
    assert len(lines) == 11  # 10 steps
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["notes"]["kappa"] == 60.0


def test_spectral_subcommand(tmp_path):
    cfg = write_config(tmp_path,
                       BASE.replace("T = 0.04", "T = 0.2")
                           .replace("dt = 0.004", "dt = 0.002"))
    out = str(tmp_path / "out")
    assert cli.main(["spectral", "--config", cfg, "--out", out]) == 0
    psd = open(os.path.join(out, "psd.csv")).read().splitlines()
    assert psd[0].startswith("frequency,mode_0")
    tau = open(os.path.join(out, "tau95.csv")).read().splitlines()
    assert tau[0] == "mode,tau95"


def test_run_pipeline_stage_selection(tmp_path):
    cfg = write_config(tmp_path, BASE + "\n[pipeline]\nstages = fom,rom\n")
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "rom_trajectory.csv"))


def test_run_default_pipeline_includes_pod(tmp_path):
    # the default stages are fom,pod,rom; `run` has no --snapshots flag
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "basis.csv").exists()
    assert (out / "rom_trajectory.csv").exists()


def test_unknown_model_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("advection_diffusion",
                                              "heat_kernel"))
    assert cli.main(["fom", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
    assert "unknown model" in capsys.readouterr().err


def test_models_are_built_by_the_module_builder(tmp_path, monkeypatch):
    # a builder replaced on benchmodels (as a tracer does) is the one used
    built = counting(monkeypatch, benchmodels, "advection_diffusion")
    assert cli.main(["fom", "--config", write_config(tmp_path, BASE),
                     "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1


def test_unused_solver_keys_are_ignored(tmp_path):
    # [solver] fd_step is no longer read; a config that sets it still runs
    plain = tmp_path / "plain"
    cfg = write_config(tmp_path, BASE)
    assert cli.main(["fom", "--config", cfg, "--out", str(plain)]) == 0
    cfg = write_config(tmp_path, BASE + "\n[solver]\nfd_step = 1e-7\n")
    out = tmp_path / "out"
    assert cli.main(["fom", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fom_trajectory.csv").read_bytes() \
        == (plain / "fom_trajectory.csv").read_bytes()


@pytest.mark.parametrize("scheme", ["bdf2", "sdirk2", "rk4"])
def test_numerical_failure_names_its_step(tmp_path, capsys, scheme):
    # one collocation row cannot determine the POD coordinates
    rows = tmp_path / "rows.txt"
    rows.write_text("3\n")
    body = BASE.replace("backward_euler", scheme) \
        + f"\n[rom]\nkind = lspg\nweighting = collocation:{rows}\n"
    assert cli.main(["rom", "--config", write_config(tmp_path, body),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure at step 1: underdetermined" in err


def test_singular_sparse_newton_matrix_is_a_numerical_failure(
        tmp_path, capsys, monkeypatch):
    # I - dt J is exactly singular at dt = 2 and regular at dt = 0.4
    monkeypatch.setattr(benchmodels, "build",
                        lambda spec: singular_sparse_model())
    cfg = write_config(tmp_path, BASE.replace("dt = 0.004", "dt = 2.0")
                       .replace("T = 0.04", "T = 4.0")
                       .replace("probe = 5", "probe = 0"))
    assert cli.main(["fom", "--config", cfg, "--out",
                     str(tmp_path / "fom")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure at step 1: Newton matrix is exactly singular" \
        in err and err.count("\n") == 1, err
    # a sweep point at that dt is unstable, with no error or bound
    run = cli._Run(cli._build_parser().parse_args(
        ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]))
    dt, error, _, bound, stable = cli._sweep_point(run, 0, 2.0,
                                                   run.fom_at(0.4), None)
    assert (dt, stable) == (2.0, False)
    assert np.isnan(error) and np.isnan(bound)


@pytest.mark.parametrize("model", ["gradient_flow", "burgers",
                                   "advection_diffusion",
                                   pytest.param(None, id="default")])
def test_verify_exit_zero(tmp_path, capsys, model):
    out = str(tmp_path / "out")
    flag = [] if model is None else ["--model", model]
    assert cli.main(["verify", *flag, "--out", out, "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert os.path.exists(os.path.join(out, "verify.txt"))
    # without --model verify checks the gradient flow, the only model with
    # an SPD residual Jacobian to weight by
    assert ("SPD-weighted equivalence" in text) \
        == (model in (None, "gradient_flow"))


def test_verify_rejects_unknown_model(tmp_path, capsys):
    assert cli.main(["verify", "--model", "bogus",
                     "--out", str(tmp_path / "out")]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_determinism_excluding_timings(tmp_path):
    cfg = write_config(tmp_path, BASE + "\n[rom]\nkind = lspg\n")
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert cli.main(["rom", "--config", cfg, "--out", out,
                         "--seed", "11"]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        if name == "timings.json":
            continue
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, f"{name} differs between identical runs"


def test_bounds_report_uses_the_weighting_that_ran(tmp_path):
    from morrow import benchmodels, bounds, hyperreduction, lspg
    from morrow.core import SolverOptions
    from morrow.schemes import make_lmm

    samples = hyperreduction.SampleSet(indices=tuple(range(0, 24, 2)))
    spath = tmp_path / "rows.txt"
    hyperreduction.write_sample_set(samples, spath)
    cfg = write_config(tmp_path, BASE + "\n[rom]\nkind = lspg\n"
                       f"weighting = collocation:{spath}\n"
                       "\n[bounds]\nkappa = 60.0\n")
    out = str(tmp_path / "out")
    assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
    got = open(os.path.join(out, "bound_report.csv")).read()

    # the same pipeline through the library, once per weighting
    model = benchmodels.advection_diffusion(benchmodels.BenchmarkSpec(
        name="advection_diffusion", n=24, viscosity=0.05, initial="gaussian"))
    scheme, dt, T = make_lmm("backward_euler"), 0.004, 0.04
    ref = fom.integrate(model, scheme, dt, T, SolverOptions())
    x0 = ref.states[0]
    sub = pod.compute_pod(pod.SnapshotSet(vectors=np.column_stack(
        [x - x0 for x in ref.states[1:]])), 0.9999, reference=x0).basis
    reports = []
    for tag, W in (("colloc", lspg.collocation(24, samples)),
                   ("ident", lspg.scaled_identity(24))):
        traj, _ = lspg.integrate_lspg(model, sub, W, scheme, dt, T,
                                      SolverOptions())
        lt = bounds.local_aposteriori_lmm(traj, "lspg", model, sub, scheme,
                                          60.0, W)
        path = tmp_path / f"{tag}.csv"
        bounds.write_bound_report_csv(
            bounds.global_aposteriori_lmm(lt, "lspg"), path)
        reports.append(path.read_text())
    assert got == reports[0]
    assert got != reports[1]


def test_parallel_gnat_sweep_manifest_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE + "\n[rom]\nkind = gnat\n")
    grid = "0.008,0.004,0.002"
    manifests = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"par{workers}")
        assert cli.main(["sweep", "--config", cfg, "--out", out,
                         "--dt", grid, "--parallel", workers]) == 0
        manifests.append(open(os.path.join(out, "manifest.json")).read())
    assert manifests[0] == manifests[1]
    artifacts = json.loads(manifests[0])["artifacts"]
    assert sorted(a for a in artifacts if a.startswith("samples")) == [
        "samples_0.txt", "samples_1.txt", "samples_2.txt"]


def test_sweep_lspg_uses_the_configured_weighting(tmp_path):
    from morrow import benchmodels, hyperreduction, lspg
    from morrow.core import SolverOptions
    from morrow.schemes import make_lmm

    samples = hyperreduction.SampleSet(indices=tuple(range(0, 24, 2)))
    spath = tmp_path / "rows.txt"
    hyperreduction.write_sample_set(samples, spath)
    cfg = write_config(tmp_path, BASE + "\n[rom]\nkind = lspg\n"
                       f"weighting = collocation:{spath}\n")
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out,
                     "--dt", "0.004"]) == 0
    got = analysis.read_sweep_csv(os.path.join(out, "sweep.csv")).error[0]

    # the same point through the library, once per weighting
    model = benchmodels.advection_diffusion(benchmodels.BenchmarkSpec(
        name="advection_diffusion", n=24, viscosity=0.05, initial="gaussian"))
    scheme, dt, T = make_lmm("backward_euler"), 0.004, 0.04
    ref = fom.integrate(model, scheme, dt, T, SolverOptions())
    x0 = ref.states[0]
    sub = pod.compute_pod(pod.SnapshotSet(vectors=np.column_stack(
        [x - x0 for x in ref.states[1:]])), 0.9999, reference=x0).basis
    errors = []
    for W in (lspg.collocation(24, samples), lspg.scaled_identity(24)):
        traj, _ = lspg.integrate_lspg(model, sub, W, scheme, dt, T,
                                      SolverOptions())
        probe = [reconstruct(sub, y)[5] for y in traj.states]
        errors.append(analysis.trajectory_error(
            traj.times, probe, ref.times, [x[5] for x in ref.states]))
    assert abs(got - errors[0]) <= 1e-10 * errors[0]
    assert abs(got - errors[1]) > 1e-6 * errors[1]


GRADFLOW_RK = """\
[model]
name = gradient_flow
spectrum = 0.5,1.0,1.5,2.0,2.5,3.0,3.5,4.0

[time]
scheme = sdirk2
dt = 0.05
T = 0.5

[pod]
nu = 0.99

[rom]
kind = {kind}

[bounds]
kappa = 4.0
"""


@pytest.mark.parametrize("kind", ["galerkin", "lspg"])
def test_bounds_accepts_runge_kutta_schemes(tmp_path, kind):
    # f = -A x with ||A||_2 = 4: kappa is exact, so the bound is sound
    cfg = write_config(tmp_path, GRADFLOW_RK.format(kind=kind))
    out = str(tmp_path / "out")
    assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
    ref = fom.read_trajectory_csv(os.path.join(out, "fom_trajectory.csv"))
    rom = fom.read_trajectory_csv(os.path.join(out, "rom_trajectory.csv"))
    report = np.genfromtxt(os.path.join(out, "bound_report.csv"),
                           delimiter=",", names=True)
    assert list(report["n"]) == list(range(1, 11))
    errors = np.linalg.norm(ref.states - rom.states, axis=1)[1:]
    assert np.all(errors > 0.0)
    assert np.all(report["global_bound"] >= errors)


def test_sweep_bounds_runge_kutta_points(tmp_path):
    cfg = write_config(tmp_path, GRADFLOW_RK.format(kind="galerkin"))
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", cfg, "--out", out,
                     "--dt", "0.1,0.05"]) == 0
    sweep = analysis.read_sweep_csv(os.path.join(out, "sweep.csv"))
    assert np.all(np.isfinite(sweep.bound)) and np.all(sweep.bound > 0.0)


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_sweep_rejects_unknown_rom_kind(tmp_path, capsys, monkeypatch,
                                       spelling):
    def forbidden(*args, **kwargs):
        raise AssertionError("no solve before the kind is checked")

    monkeypatch.setattr(fom, "integrate", forbidden)
    body = BASE if spelling == "flag" else BASE + "\n[rom]\nkind = bogus\n"
    argv = ["sweep", "--config", write_config(tmp_path, body),
            "--out", str(tmp_path / "out"), "--dt", "0.008,0.004"]
    if spelling == "flag":
        argv += ["--rom", "bogus"]
    assert cli.main(argv) == 1
    assert "unknown rom kind" in capsys.readouterr().err


def test_sweep_estimates_kappa_once(tmp_path, monkeypatch):
    from morrow import bounds
    calls = []
    estimate = bounds.estimate_lipschitz

    def counted(*args):
        calls.append(1)
        return estimate(*args)

    monkeypatch.setattr(bounds, "estimate_lipschitz", counted)
    cfg = write_config(tmp_path, BASE + "\n[bounds]\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--dt", "0.008,0.004,0.002"]) == 0
    assert len(calls) == 1


def test_gnat_sweep_bound_matches_bounds_subcommand(tmp_path):
    cfg = write_config(tmp_path, BASE + "\n[rom]\nkind = gnat\n"
                       "\n[bounds]\nkappa = 60.0\n")
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--config", cfg, "--out", out,
                     "--dt", "0.008,0.004"]) == 0
    sweep = analysis.read_sweep_csv(os.path.join(out, "sweep.csv"))
    assert np.isfinite(sweep.bound[1])
    out = str(tmp_path / "bounds")
    assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0  # dt 0.004
    report = np.genfromtxt(os.path.join(out, "bound_report.csv"),
                           delimiter=",", names=True)
    assert sweep.bound[1] == report["global_bound"][-1]


def test_sweep_reuses_reference_at_finest_dt(tmp_path, monkeypatch):
    runs = counting(monkeypatch, fom, "integrate")
    cfg = write_config(tmp_path, BASE + "\n[rom]\nkind = lspg\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--dt", "0.008,0.004,0.002"]) == 0
    # the reference at dt 0.002 and the points at 0.008 and 0.004
    assert sorted(args[2] for args in runs) == [0.002, 0.004, 0.008]


GRADFLOW_BE = """\
[model]
name = gradient_flow
spectrum = 0.5,1.0,1.5,2.0,2.5,3.0,3.5,4.0

[time]
scheme = backward_euler
dt = 0.05
T = 0.5

[pod]
nu = 0.99

[bounds]
kappa = {kappa!r}
"""


@pytest.mark.parametrize("scale", [0.9, 1.0])
def test_bounds_flags_a_kappa_below_the_jacobian_norm(tmp_path, scale):
    from morrow import benchmodels
    a = benchmodels.gradient_flow_spd(benchmodels.BenchmarkSpec(
        name="gradient_flow", spectrum=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5,
                                        4.0))).jacobian(None, 0.0)
    norm = float(np.linalg.norm(a, 2))
    cfg = write_config(tmp_path, GRADFLOW_BE.format(kappa=scale * norm))
    out = str(tmp_path / "out")
    assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
    notes = json.load(open(os.path.join(out, "manifest.json")))["notes"]
    assert notes["kappa_trajectory_max"] == norm
    assert notes["kappa_underestimated"] is (scale < 1.0)


STEEPENING_BURGERS = """\
[model]
name = burgers
n = 64
viscosity = 0.002
bc = periodic
initial = sine

[time]
scheme = backward_euler
dt = 0.002
T = 0.2

[pod]
nu = 0.9999
"""


def test_bounds_flags_a_sampled_kappa_on_a_steepening_wave(tmp_path):
    # the sine steepens into a front, so ||J|| grows along the trajectory
    # past the estimate sampled around the initial state
    cfg = write_config(tmp_path, STEEPENING_BURGERS)
    manifests = []
    for tag in ("a", "b"):  # a rerun writes the same bytes
        out = str(tmp_path / tag)
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        manifests.append(open(os.path.join(out, "manifest.json"),
                              "rb").read())
    assert manifests[1] == manifests[0]
    notes = json.loads(manifests[0])["notes"]
    assert notes["kappa_trajectory_max"] > 1.2 * notes["kappa"]
    assert notes["kappa_underestimated"] is True


def test_readme_config_example_runs(tmp_path):
    readme = open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, "README.md"),
                  encoding="utf-8").read()
    section = readme.split("### Config grammar (INI)", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = write_config(tmp_path, block)
    assert cli.main(["rom", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0


# every stage `run` can chain, over 16 steps so that `spectral` runs
SIX_STAGES = BASE.replace("T = 0.04", "T = 0.064\ndt_grid = 0.016,0.008,0.004") \
    + "\n[rom]\nkind = lspg\n[bounds]\nkappa = 60.0\n" \
    + "[pipeline]\nstages = fom,pod,rom,sweep,bounds,spectral\n"


def test_run_chains_every_stage_and_writes_one_cell_format(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, SIX_STAGES),
                     "--out", str(out)]) == 0
    names = set(os.listdir(out))
    assert {"sweep_notime.csv", "bound_report.csv", "psd.csv",
            "tau95.csv", "gn_diagnostics.csv"} <= names
    for name in sorted(n for n in names if n.endswith(".csv")):
        for line in (out / name).read_bytes().decode().split("\n")[1:-1]:
            for cell in line.split(","):
                assert cell == "" or re.fullmatch(r"-?\d+", cell) \
                    or cell == repr(float(cell)), (name, cell)


@pytest.mark.parametrize("sub, body, extra, names", [
    ("rom", BASE.replace("backward_euler", "explicit_euler")
     + "\n[rom]\nkind = gnat\n", [], "'explicit_euler'"),
    ("sweep", BASE.replace("backward_euler", "explicit_euler")
     + "\n[rom]\nkind = gnat\n", ["--dt", "0.008,0.004"], "'explicit_euler'"),
    ("fom", BASE.replace("backward_euler", "leapfrog"), [], "'leapfrog'"),
    ("fom", "[time]" + BASE.split("[time]")[1], [], "[model]"),
    ("fom", BASE.replace("dt = 0.004\n", ""), [], "[time] dt"),
    ("sweep", BASE, [], "dt_grid"),
    ("spectral", BASE, [], "[time] T"),
    ("fom", BASE.replace("dt = 0.004", "dt = 0"), [], "[time] dt"),
    ("fom", BASE.replace("n = 24", "n = abc"), [], "[model] n"),
    ("fom", BASE.replace("n = 24", "n = 2"), [], "[model] grid size"),
    ("fom", BASE.replace("viscosity = 0.05", "viscosity = x"), [],
     "[model] viscosity"),
    ("fom", GRADFLOW_BE.format(kappa=4.0).replace("2.0,", "two,"), [],
     "[model] spectrum"),
    ("pod", BASE.replace("nu = 0.9999", "nu = 2"), [], "[pod] nu"),
    ("pod", BASE.replace("nu = 0.9999", "nu = 0.9999\np = 0"), [],
     "[pod] p"),
    ("rom", BASE + "\n[rom]\nkind = gnat\nnu_residual = abc\n", [],
     "[rom] nu_residual"),
    ("rom", BASE + "\n[rom]\nkind = gnat\nn_samples = many\n", [],
     "[rom] n_samples"),
    ("rom", BASE + "\n[rom]\nkind = lspg\nweighting = gamma:big\n", [],
     "[rom] weighting"),
    ("fom", BASE + "\n[solver]\nmax_iters = ten\n", [],
     "[solver] max_iters"),
    ("fom", BASE + "\n[solver]\nmax_iters = 0\n", [], "[solver]"),
    ("bounds", BASE + "\n[bounds]\nkappa = sixty\n", [], "[bounds] kappa"),
    ("fom", BASE.replace("probe = 5", "probe = 5\nseed = s"), [],
     "[output] seed"),
    ("rom", BASE.replace("probe = 5", "probe = 999"), [], "[output] probe"),
    ("sweep", BASE.replace("probe = 5", "probe = 999"),
     ["--dt", "0.008,0.004"], "[output] probe"),
    ("sweep", BASE, ["--dt", "0.004,abc"], "--dt"),
    ("sweep", BASE, ["--dt", "0.004,0.0"], "positive"),
    ("sweep", BASE.replace("T = 0.04", "T = 0.04\ndt_grid = 0.008,x"), [],
     "[time] dt_grid"),
    ("rom", BASE.replace("T = 0.04", "T = 0") + "\n[rom]\nkind = lspg\n", [],
     "[time] T = 0.0 is shorter than one step"),
    ("fom", BASE.replace("T = 0.04", "T = 0.001"), [], "not a multiple"),
    ("fom", BASE.replace("T = 0.04", "T = -0.04"), [], "[time] T"),
    ("rom", BASE + "\n[rom]\nkind = lspg\n"
     "weighting = collocation:no-such-dir/rows.txt\n", [],
     "no-such-dir/rows.txt"),
    ("pod", BASE, ["--nu", "0.5"],
     "--nu needs --snapshots; a config sets [pod] nu"),
], ids=["gnat-explicit-rom", "gnat-explicit-sweep", "unknown-scheme",
        "no-model", "no-dt", "sweep-no-grid", "spectral-short-run",
        "dt-zero", "n-not-integer", "n-too-small", "viscosity-not-number",
        "spectrum-not-numbers", "pod-nu-above-1", "pod-p-zero",
        "nu-residual-not-number", "n-samples-not-integer",
        "gamma-not-number", "max-iters-not-integer", "max-iters-zero",
        "kappa-not-number", "seed-not-integer", "probe-out-of-range-rom",
        "probe-out-of-range-sweep", "dt-flag-entry-not-number",
        "dt-flag-entry-zero", "dt-grid-entry-not-number", "T-zero-rom",
        "T-below-one-step", "T-negative", "collocation-file-missing",
        "nu-without-snapshots"])
def test_config_errors_name_their_cause(tmp_path, capsys, sub, body, extra,
                                        names):
    assert cli.main([sub, "--config", write_config(tmp_path, body),
                     "--out", str(tmp_path / "o"), *extra]) == 1
    err = capsys.readouterr().err
    assert names in err and err.count("\n") == 1, err


@pytest.mark.parametrize("offset", [-1, 1], ids=["below-nu", "above-nu"])
def test_pod_p_slices_one_svd(tmp_path, monkeypatch, offset):
    # the two-call basis: the nu-truncated POD, or a second untruncated one
    # when p exceeds its mode count
    model = benchmodels.advection_diffusion(benchmodels.BenchmarkSpec(
        name="advection_diffusion", n=24, viscosity=0.05, initial="gaussian"))
    x = fom.integrate(model, make_lmm("backward_euler"), 0.004, 0.04).states
    snaps = pod.SnapshotSet(vectors=np.ascontiguousarray((x[1:] - x[0]).T))
    result = pod.compute_pod(snaps, 0.9999, reference=x[0])
    p = result.basis.p + offset
    assert p >= 1
    full = result if p <= result.basis.p else \
        pod.compute_pod(snaps, 1.0, reference=x[0])
    want = tmp_path / "want"
    want.mkdir()
    write_csv(want / "basis.csv", [f"phi_{j}" for j in range(p)],
              full.basis.basis[:, :p])
    write_csv(want / "singular_values.csv",
              ["i", "sigma", "cumulative_energy"],
              zip(range(len(full.singular_values)), full.singular_values,
                  full.energy_fractions))

    svds = counting(monkeypatch, pod, "compute_pod")
    cfg = write_config(tmp_path, BASE.replace("nu = 0.9999",
                                              f"nu = 0.9999\np = {p}"))
    out = tmp_path / "out"
    assert cli.main(["pod", "--config", cfg, "--out", str(out)]) == 0
    assert len(svds) == 1
    for name in ("basis.csv", "singular_values.csv"):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


# the six-stage `run` of the CI workflow: no [bounds] kappa, so the bound
# stage and the sweep share one sampled estimate
SIX_STAGES_SAMPLED = BASE.replace("backward_euler", "bdf2").replace(
    "T = 0.04", "T = 0.064\ndt_grid = 0.016,0.008,0.004") \
    + "\n[rom]\nkind = {kind}\n[bounds]\n" \
    + "[pipeline]\nstages = fom,pod,rom,sweep,bounds,spectral\n"


@pytest.mark.parametrize("kind", ["galerkin", "lspg", "gnat"])
@pytest.mark.parametrize("dt", ["0.004", "0.002"], ids=["in-grid", "off-grid"])
def test_run_solves_each_dt_once(tmp_path, monkeypatch, kind, dt):
    foms = counting(monkeypatch, fom, "integrate")
    svds = counting(monkeypatch, pod, "compute_pod")
    roms = counting(monkeypatch, cli, "_integrate_rom")
    trainings = counting(monkeypatch, hyperreduction,
                         "collect_residual_snapshots")
    kappas = counting(monkeypatch, bounds, "estimate_lipschitz")
    body = SIX_STAGES_SAMPLED.format(kind=kind).replace(
        "dt = 0.004", f"dt = {dt}")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, body),
                     "--out", str(out), "--seed", "7"]) == 0
    grid = [0.004, 0.008, 0.016]
    dts = sorted({0.002, *grid}) if dt == "0.002" else grid
    # Galerkin ROMs integrate their reduced model through fom.integrate
    assert sorted(a[2] for a in foms if a[0].dim == 24) == dts
    assert len(roms) == 1 + len(grid)
    assert len(trainings) == (1 + len(grid) if kind == "gnat" else 0)
    # GNAT's residual bases are PODs too
    assert len(svds) == len(dts) + len(trainings)
    assert len(kappas) == 1
    # the FOM the stages record is the one at [time] dt
    traj = fom.read_trajectory_csv(out / "fom_trajectory.csv")
    assert len(traj.states) == round(0.064 / float(dt)) + 1
    assert traj.times[1] == float(dt)


@pytest.mark.parametrize("kind", ["galerkin", "lspg", "gnat"])
def test_run_records_what_standalone_stages_record(tmp_path, kind):
    cfg = write_config(tmp_path, SIX_STAGES_SAMPLED.format(kind=kind))

    def manifest(*argv):
        out = tmp_path / "-".join(argv)
        assert cli.main([*argv, "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
        return json.loads((out / "manifest.json").read_text())

    run = manifest("run")
    assert manifest("run", "--parallel", "2") == run
    standalone = {}
    for sub in ("fom", "pod", "rom", "bounds", "spectral", "sweep"):
        for name, digest in manifest(sub)["artifacts"].items():
            standalone.setdefault(name, set()).add(digest)
    assert set(standalone) == set(run["artifacts"])
    for name, digest in run["artifacts"].items():
        assert standalone[name] == {digest}, name


def test_parallel_sweep_fills_each_memo_entry_once(tmp_path, monkeypatch):
    # more threads than cores, switching often: a lost or doubled memo
    # entry would show as a second FOM at one dt or a missing samples file
    cfg = write_config(tmp_path, BASE.replace("T = 0.04", "T = 0.048")
                       + "\n[rom]\nkind = gnat\n")
    grid = "0.016,0.012,0.008,0.006,0.004,0.002"
    out1 = tmp_path / "serial"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1),
                     "--dt", grid]) == 0
    foms = counting(monkeypatch, fom, "integrate")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out6 = tmp_path / "parallel"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out6),
                         "--dt", grid, "--parallel", "6"]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert sorted(a[2] for a in foms) == sorted(map(float, grid.split(",")))
    assert (out6 / "manifest.json").read_bytes() \
        == (out1 / "manifest.json").read_bytes()


# forward Euler past its stability limit dx^2 / (2 viscosity) = 2.37e-3:
# the full-order state overflows to inf and then NaN
DIVERGING = """\
[model]
name = burgers
n = 64
viscosity = 0.05

[time]
scheme = forward_euler
dt = 0.008
T = 0.4

[pod]
nu = 0.9999

[rom]
kind = lspg
"""


# a RuntimeWarning is an error here: a diverging run reports its cause on
# one stderr line and prints nothing else
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sub", ["fom", "pod", "rom", "bounds", "spectral"])
def test_diverging_fom_is_a_numerical_failure(tmp_path, capsys, sub):
    model = benchmodels.burgers1d(benchmodels.BenchmarkSpec(
        name="burgers", n=64, viscosity=0.05))
    # forward Euler by hand, to the first state that is not finite
    x = model.initial_state
    with np.errstate(all="ignore"):
        for step in range(1, 51):
            x = x + 0.008 * model.velocity(x, (step - 1) * 0.008)
            if not np.isfinite(x).all():
                break
    assert not np.isfinite(x).all()
    assert cli.main([sub, "--config", write_config(tmp_path, DIVERGING),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"numerical failure at step {step}: state" in err \
        and "not finite" in err and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_point_with_a_diverging_fom_is_unstable(tmp_path, capsys):
    cfg = write_config(tmp_path, DIVERGING.replace("T = 0.4", "T = 0.44"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--dt", "0.00275,0.002"]) == 0
    sweep = analysis.read_sweep_csv(out / "sweep_notime.csv")
    assert list(sweep.stable) == [0, 1]
    assert np.isnan(sweep.error[0]) and np.isfinite(sweep.error[1])
    # the reference (the finest dt) diverging fails the whole sweep
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "r"),
                     "--dt", "0.004,0.00275"]) == 2
    assert "not finite" in capsys.readouterr().err


# periodic Burgers past forward Euler's limit, on the basis of the leading
# POD modes: the FOM stays bounded, the Galerkin ROM overflows and LSPG
# grows by over 1e100 but stays finite
DIVERGING_ROM = """\
[model]
name = burgers
n = 64
viscosity = 0.003
bc = periodic
initial = sine

[time]
scheme = forward_euler
dt = 0.01
T = 2.0

[pod]
nu = 0.9

[rom]
kind = {kind}
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_galerkin_rom_is_a_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, DIVERGING_ROM.format(kind="galerkin"))
    assert cli.main(["rom", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure at step 113: state is not "
                          "finite") and err.count("\n") == 1, err


def test_growth_unstable_sweep_point_has_no_error(tmp_path):
    # the LSPG ROM stays finite, so only the growth test flags it: its row
    # is that of a failed solve
    cfg = write_config(tmp_path, DIVERGING_ROM.format(kind="lspg"))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--dt", "0.01,0.005"]) == 0
    sweep = analysis.read_sweep_csv(out / "sweep_notime.csv")
    assert list(sweep.stable) == [0, 0]
    assert np.isnan(sweep.error).all() and np.isnan(sweep.bound).all()


BURGERS_BOUNDS = BASE.replace("advection_diffusion", "burgers") \
    .replace("initial = gaussian\n", "") + "\n[rom]\nkind = lspg\n"


@pytest.mark.parametrize("sub, body, flags, names", [
    ("pod", None, ["--snapshots", "{tmp}/missing.csv"], "missing.csv"),
    ("pod", None, ["--snapshots", "{tmp}/ragged.csv"], "ragged.csv"),
    ("pod", None, ["--snapshots", "{tmp}/snaps.csv", "--nu", "2"], "--nu"),
    ("bounds", BURGERS_BOUNDS, ["--seed", "-1"], "--seed"),
    ("fom", GRADFLOW_BE.format(kappa=4.0), ["--seed", "-1"], "--seed"),
    ("fom", GRADFLOW_BE.format(kappa=4.0), ["--seed", str(2**64)], "--seed"),
    ("fom", GRADFLOW_BE.format(kappa=4.0).replace("[time]",
                                                  "[output]\nseed = -1\n"
                                                  "[time]"), [],
     "[output] seed"),
], ids=["snapshots-missing", "snapshots-ragged", "nu-above-1",
        "seed-negative-burgers-bounds", "seed-negative-gradflow",
        "seed-too-large", "config-seed-negative"])
def test_flag_errors_name_their_flag(tmp_path, capsys, sub, body, flags,
                                     names):
    (tmp_path / "ragged.csv").write_text("s_0,s_1\n1.0,2.0\n3.0\n")
    pod.write_snapshots_csv(pod.SnapshotSet(
        vectors=np.random.default_rng(0).standard_normal((6, 3))),
        tmp_path / "snaps.csv")
    config = [] if body is None else ["--config", write_config(tmp_path, body)]
    assert cli.main([sub, *config, "--out", str(tmp_path / "o"),
                     *(f.format(tmp=tmp_path) for f in flags)]) == 1
    err = capsys.readouterr().err
    assert names in err and err.count("\n") == 1, err


def test_pod_p_rom_does_not_depend_on_the_basis_layout(tmp_path):
    # nu = 0.999 keeps the 2 modes that [pod] p = 2 slices off the full
    # basis: the same basis.csv must give the same ROM
    body = BASE.replace("advection_diffusion", "burgers") \
        .replace("n = 24", "n = 48").replace("viscosity = 0.05",
                                             "viscosity = 0.02") \
        .replace("initial = gaussian\n", "") \
        .replace("backward_euler", "bdf2").replace("dt = 0.004", "dt = 0.002") \
        .replace("nu = 0.9999", "nu = 0.999")
    outs = []
    for name, extra in (("nu", ""), ("p", "\np = 2")):
        cfg = write_config(tmp_path, body.replace("nu = 0.999",
                                                  "nu = 0.999" + extra),
                           name=f"{name}.ini")
        outs.append(tmp_path / name)
        assert cli.main(["rom", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert (outs[0] / "basis.csv").read_text().startswith("phi_0,phi_1\n")
    for artifact in ("basis.csv", "rom_trajectory.csv"):
        assert (outs[0] / artifact).read_bytes() \
            == (outs[1] / artifact).read_bytes(), artifact

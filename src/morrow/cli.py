"""Config-driven experiment harness.

    morrow <subcommand> [--config PATH] [--out DIR] [--seed U64] [--parallel K]

Subcommands: run | fom | pod | rom | sweep | bounds | spectral | verify.
Configs are INI files (see README for the grammar).  Exit codes: 0 success,
1 usage/config error, 2 numerical failure, 3 verification failure.

All artifacts are written deterministically (shortest round-tripping float
representation, LF endings); wall times live in a separate timings.json so
the rest of the output is byte-identical across reruns with the same config
and seed.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import analysis, benchmodels, bounds, fom, galerkin, hyperreduction, \
    lspg, pod
from .core import (SolverOptions, TrialSubspace, Trajectory, write_csv,
                   write_text)
from .fom import StepSolveError
from .lspg import GaussNewtonError
from .schemes import ButcherTableau, make_butcher, make_lmm

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_VERIFY = 0, 1, 2, 3

_LMM_NAMES = ("backward_euler", "forward_euler", "bdf2")


class ConfigError(ValueError):
    pass


def _load_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}")
    return cp


def _section(cp, name):
    if not cp.has_section(name):
        raise ConfigError(f"config has no [{name}] section")
    return cp[name]


def _number(cp, section, key):
    """A required float from the config."""
    value = _section(cp, section).get(key)
    if value is None:
        raise ConfigError(f"config has no [{section}] {key}")
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {value!r} is not a number")


def _model_from_config(cp, seed):
    sec = _section(cp, "model")
    name = sec.get("name")
    spectrum = sec.get("spectrum")
    spec = benchmodels.BenchmarkSpec(
        name=name,
        n=sec.getint("n", 256),
        viscosity=sec.getfloat("viscosity", 0.005),
        speed=sec.getfloat("speed", 1.0),
        bc=sec.get("bc", "dirichlet0"),
        initial=sec.get("initial", "step"),
        spectrum=None if spectrum is None
        else tuple(float(v) for v in spectrum.split(",")),
        seed=seed)
    try:
        return benchmodels.build(spec)
    except ValueError as err:
        raise ConfigError(str(err))


def _scheme_from_config(cp):
    name = _section(cp, "time").get("scheme", "backward_euler")
    if name in _LMM_NAMES:
        return make_lmm(name)
    try:
        return make_butcher(name)
    except ValueError:
        raise ConfigError(f"unknown [time] scheme {name!r}")


def _solver_from_config(cp):
    if not cp.has_section("solver"):
        return SolverOptions()
    sec = cp["solver"]
    return SolverOptions(
        newton_abs_tol=sec.getfloat("newton_abs_tol", 1e-12),
        newton_rel_tol=sec.getfloat("newton_rel_tol", 1e-3),
        max_iters=sec.getint("max_iters", 50))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Shared state for one invocation: config, output dir, manifest."""

    def __init__(self, args):
        self.args = args
        self.cp = _load_config(args.config) if args.config else None
        self.seed = args.seed if args.seed is not None else (
            self.cp["output"].getint("seed", 0)
            if self.cp and self.cp.has_section("output") else 0)
        out = args.out or (self.cp["output"].get("dir", "out")
                           if self.cp and self.cp.has_section("output")
                           else "out")
        self.out = out
        os.makedirs(out, exist_ok=True)
        self.artifacts = {}
        self.timings = {}
        self.notes = {}

    def path(self, name):
        return os.path.join(self.out, name)

    def record(self, name):
        self.artifacts[name] = _sha256(self.path(name))

    def finalize(self):
        from . import __version__
        manifest = {
            "config": os.path.basename(self.args.config)
            if self.args.config else None,
            "seed": self.seed,
            "version": __version__,
            "artifacts": dict(sorted(self.artifacts.items())),
            "notes": dict(sorted(self.notes.items())),
        }
        for name, obj in (("manifest.json", manifest),
                          ("timings.json", self.timings)):
            write_text(self.path(name),
                       [json.dumps(obj, indent=2, sort_keys=True)])


def _timed(run, key, fn):
    t0 = time.perf_counter()
    result = fn()
    run.timings[key] = time.perf_counter() - t0
    return result


def _is_unstable(states):
    norms = np.linalg.norm(states, axis=1)
    return bool(np.any(norms > 1e6 * max(norms[0], 1.0)))


def _centered(states):
    """Snapshot matrix with columns x^n - x^0, n >= 1.  C order: the POD's
    column norms sum in a layout-dependent order, and C order keeps the
    basis bitwise equal to one built from stacked columns."""
    return np.ascontiguousarray((states[1:] - states[0]).T)


def _run_fom(run):
    cp = run.cp
    model = _model_from_config(cp, run.seed)
    scheme = _scheme_from_config(cp)
    dt, T = _number(cp, "time", "dt"), _number(cp, "time", "T")
    opts = _solver_from_config(cp)
    traj = _timed(run, "fom", lambda: fom.integrate(model, scheme, dt, T, opts))
    fom.write_trajectory_csv(traj, run.path("fom_trajectory.csv"))
    run.record("fom_trajectory.csv")
    # initial-condition-centered snapshots for downstream POD
    snaps = _centered(traj.states)
    if snaps.shape[1]:
        pod.write_snapshots_csv(pod.SnapshotSet(vectors=snaps),
                                run.path("snapshots.csv"))
        run.record("snapshots.csv")
    run.notes["fom_unstable"] = _is_unstable(traj.states)
    return model, traj


def _pod_from_config(run, model, traj):
    """POD of the run's centered snapshots: the modes that meet the [pod]
    nu energy criterion, or the leading [pod] p modes when p is set."""
    sec = run.cp["pod"] if run.cp.has_section("pod") else {}
    x0 = traj.states[0]
    snaps = pod.SnapshotSet(vectors=_centered(traj.states))
    result = pod.compute_pod(snaps, float(sec.get("nu", 1.0 - 1e-6)),
                             reference=x0)
    if sec.get("p") is not None:
        p = int(sec.get("p"))
        full = result if p <= result.basis.p else \
            pod.compute_pod(snaps, 1.0, reference=x0)
        result = replace(result, basis=TrialSubspace(
            basis=full.basis.basis[:, :p], reference=x0))
    return result


def _write_pod(run, result):
    sub = result.basis
    write_csv(run.path("basis.csv"), [f"phi_{j}" for j in range(sub.p)],
              sub.basis)
    run.record("basis.csv")
    write_csv(run.path("singular_values.csv"),
              ["i", "sigma", "cumulative_energy"],
              zip(range(len(result.singular_values)), result.singular_values,
                  result.energy_fractions))
    run.record("singular_values.csv")


def _rom_kind(cp):
    """The configured ROM kind; raises ConfigError for an unknown one."""
    kind = cp["rom"].get("kind", "galerkin") if cp.has_section("rom") \
        else "galerkin"
    if kind not in ("galerkin", "lspg", "gnat"):
        raise ConfigError(f"unknown rom kind {kind!r}")
    return kind


def _weighting_from_config(run, model, sub, scheme, dt, T, opts,
                           artifact="samples.txt"):
    """The LSPG weighting the config asks for, None for Galerkin; GNAT
    writes its sampled rows to the named artifact."""
    cp = run.cp
    kind = _rom_kind(cp)
    if kind == "galerkin":
        return None
    if kind == "lspg":
        spec = cp["rom"].get("weighting", "identity")
        if spec == "identity":
            return lspg.scaled_identity(model.dim)
        if spec.startswith("gamma:"):
            return lspg.scaled_identity(model.dim, float(spec[6:]))
        if spec.startswith("collocation:"):
            return lspg.collocation(
                model.dim, hyperreduction.read_sample_set(spec[12:]))
        raise ConfigError(f"unknown weighting {spec!r}")
    # GNAT: residual snapshots from a W=I training run on this config
    nu_r = cp["rom"].getfloat("nu_residual", 1.0)
    snaps = hyperreduction.collect_residual_snapshots(
        model, sub, scheme, dt, T, opts)
    if not snaps.vectors.shape[1]:
        raise ConfigError(f"gnat cannot train on [time] scheme "
                          f"{scheme.name!r}: it leaves no residual snapshots")
    rbasis = hyperreduction.build_residual_basis(snaps, nu_r)
    n_samples = cp["rom"].getint("n_samples", 2 * rbasis.shape[1])
    n_samples = min(max(n_samples, rbasis.shape[1]), model.dim)
    samples = hyperreduction.select_samples(rbasis, n_samples)
    hyperreduction.write_sample_set(samples, run.path(artifact))
    run.record(artifact)
    return hyperreduction.gnat_weighting(samples, rbasis)


def _integrate_rom(model, sub, W, scheme, dt, T, opts):
    """Galerkin when W is None, LSPG weighted by W otherwise; returns the
    reduced trajectory and the Gauss-Newton reports (none for Galerkin)."""
    if W is None:
        return galerkin.integrate_galerkin(model, sub, scheme, dt, T,
                                           opts), []
    return lspg.integrate_lspg(model, sub, W, scheme, dt, T, opts)


def _run_rom(run, model, sub):
    """Run the configured ROM; returns (traj, lifted, W) with W the LSPG
    weighting that ran (None for Galerkin)."""
    cp = run.cp
    scheme = _scheme_from_config(cp)
    dt, T = _number(cp, "time", "dt"), _number(cp, "time", "T")
    opts = _solver_from_config(cp)
    W = _weighting_from_config(run, model, sub, scheme, dt, T, opts)
    traj, reports = _timed(run, "rom", lambda: _integrate_rom(
        model, sub, W, scheme, dt, T, opts))
    lifted = Trajectory(dt=traj.dt,
                        states=sub.reference + traj.states @ sub.basis.T,
                        kind=traj.kind)
    fom.write_trajectory_csv(lifted, run.path("rom_trajectory.csv"))
    run.record("rom_trajectory.csv")
    if reports:
        lspg.write_gn_diagnostics_csv(reports, run.path("gn_diagnostics.csv"))
        run.record("gn_diagnostics.csv")
    run.notes["rom_unstable"] = _is_unstable(lifted.states)
    return traj, lifted, W


def _kappa(run, model):
    cp = run.cp
    if cp.has_section("bounds") and cp["bounds"].get("kappa") is not None:
        return cp["bounds"].getfloat("kappa")
    x0 = np.asarray(model.initial_state, float)
    rng = np.random.default_rng(run.seed)
    samples = [x0] + [x0 + 0.1 * rng.standard_normal(model.dim)
                      for _ in range(4)]
    return bounds.estimate_lipschitz(model, samples, [0.0])


def cmd_fom(run):
    _run_fom(run)
    return EXIT_OK


def cmd_pod(run):
    if getattr(run.args, "snapshots", None):  # `run` has no --snapshots
        snaps = pod.read_snapshots_csv(run.args.snapshots)
        nu = run.args.nu if run.args.nu is not None else 1.0 - 1e-6
        result = pod.compute_pod(snaps, nu)
    else:
        model, traj = _run_fom(run)
        result = _pod_from_config(run, model, traj)
    _write_pod(run, result)
    return EXIT_OK


def cmd_rom(run):
    _rom_kind(run.cp)  # an unknown kind fails before any solve
    model, traj = _run_fom(run)
    result = _pod_from_config(run, model, traj)
    _write_pod(run, result)
    rom_traj, lifted, _ = _run_rom(run, model, result.basis)
    probe = run.cp["output"].getint("probe", 0) \
        if run.cp.has_section("output") else 0
    err = analysis.trajectory_error(lifted.times, lifted.states[:, probe],
                                    traj.times, traj.states[:, probe])
    run.notes["probe_error"] = err
    return EXIT_OK


def _sweep_point(run, index, model, scheme, dt, T, opts, ref, probe,
                 kappa):
    """FOM, POD and the configured ROM at one grid dt, as the row
    (dt, error, walltime_s, bound, stable) of a SweepResult; the bound (when
    kappa is not None) is the one `morrow bounds` reports at that dt.  The
    point at the reference's dt takes the reference as its FOM run."""
    t0 = time.perf_counter()
    try:
        full = ref if dt == ref.dt else fom.integrate(model, scheme, dt, T,
                                                      opts)
        sub = _pod_from_config(run, model, full).basis
        W = _weighting_from_config(run, model, sub, scheme, dt, T, opts,
                                   artifact=f"samples_{index}.txt")
        traj, _ = _integrate_rom(model, sub, W, scheme, dt, T, opts)
        lifted = sub.reference + traj.states @ sub.basis.T
        wall = time.perf_counter() - t0
        stable = not _is_unstable(lifted)
        err = analysis.trajectory_error(traj.times, lifted[:, probe],
                                        ref.times, ref.states[:, probe])
        bval = np.nan
        if kappa is not None and stable:
            try:
                bval = _bound_report(traj, model, sub, scheme, kappa,
                                     W).global_bound
            except bounds.BoundHypothesisError:
                pass  # dt outside the theorem's cap: no bound, run still valid
        return dt, err, wall, bval, stable
    except (StepSolveError, GaussNewtonError,
            bounds.BoundHypothesisError, FloatingPointError):
        return dt, np.nan, time.perf_counter() - t0, np.nan, False


def cmd_sweep(run):
    cp = run.cp
    grid = getattr(run.args, "dt", None) or _section(cp, "time").get("dt_grid")
    if grid is None:
        raise ConfigError("sweep needs --dt or [time] dt_grid")
    dts = [float(v) for v in grid.split(",")]
    diffs = np.diff(dts)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("dt grid must be strictly monotone")
    T_total = _number(cp, "time", "T")
    for d in dts:
        steps = T_total / d
        if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
            raise ConfigError(f"T = {T_total} is not a multiple of dt = {d}")
    if getattr(run.args, "rom", None):  # `run` has no --dt or --rom
        if not cp.has_section("rom"):
            cp.add_section("rom")
        cp["rom"]["kind"] = run.args.rom
    _rom_kind(cp)  # an unknown kind fails before any solve
    probe = cp["output"].getint("probe", 0) if cp.has_section("output") else 0

    # reference: FOM at the finest dt in the grid
    model = _model_from_config(cp, run.seed)
    scheme = _scheme_from_config(cp)
    opts = _solver_from_config(cp)
    ref = fom.integrate(model, scheme, min(dts), T_total, opts)
    kappa = _kappa(run, model) if cp.has_section("bounds") else None

    # the model's callbacks are pure, so the threads share it
    workers = max(1, run.args.parallel)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(
            lambda i: _sweep_point(run, i, model, scheme, dts[i], T_total,
                                   opts, ref, probe, kappa),
            range(len(dts))))
    sweep = analysis.SweepResult(*(np.array(col) for col in zip(*rows)))
    analysis.write_sweep_csv(sweep, run.path("sweep.csv"))
    # timing-free companion so reruns can be compared byte for byte
    sweep.walltime_s = np.zeros_like(sweep.dt)
    analysis.write_sweep_csv(sweep, run.path("sweep_notime.csv"))
    run.record("sweep_notime.csv")
    return EXIT_OK


def _bound_report(traj, model, sub, scheme, kappa, W):
    """Global a posteriori bound of a ROM run with the W it ran with: the
    local-term recursion for a multistep scheme, the stage-record bound
    for a Runge-Kutta tableau."""
    kind = "galerkin" if traj.kind == "galerkin" else "lspg"
    if isinstance(scheme, ButcherTableau):
        return bounds.rk_aposteriori_bound(traj, kind, scheme, kappa, model,
                                           sub, W)
    lt = bounds.local_aposteriori_lmm(traj, kind, model, sub, scheme, kappa,
                                      W)
    return bounds.global_aposteriori_lmm(lt, kind)


def cmd_bounds(run):
    _rom_kind(run.cp)  # an unknown kind fails before any solve
    model, ref = _run_fom(run)
    result = _pod_from_config(run, model, ref)
    rom_traj, lifted, W = _run_rom(run, model, result.basis)
    kappa = _kappa(run, model)
    rep = _bound_report(rom_traj, model, result.basis,
                        _scheme_from_config(run.cp), kappa, W)
    bounds.write_bound_report_csv(rep, run.path("bound_report.csv"))
    run.record("bound_report.csv")
    run.notes["kappa"] = kappa
    run.notes["kappa_caveat"] = "valid modulo kappa under-estimation"
    # the Jacobian's 2-norm at the states the bound visited: a kappa below
    # it under-estimates the Lipschitz constant on this trajectory
    kmax = bounds.max_jacobian_norm(model, lifted.states, lifted.times)
    run.notes["kappa_trajectory_max"] = kmax
    run.notes["kappa_underestimated"] = kmax > kappa
    return EXIT_OK


def cmd_spectral(run):
    model, traj = _run_fom(run)
    result = _pod_from_config(run, model, traj)
    sub = result.basis
    coords = (traj.states - sub.reference) @ sub.basis
    try:
        rep = analysis.spectral_analysis(coords, traj.dt)
    except ValueError as err:
        raise ConfigError(f"spectral: {err}; lengthen [time] T / dt")
    write_csv(run.path("psd.csv"),
              ["frequency", *(f"mode_{j}" for j in range(sub.p))],
              ((f, *row) for f, row in zip(rep.frequencies, rep.psd)))
    run.record("psd.csv")
    write_csv(run.path("tau95.csv"), ["mode", "tau95"], enumerate(rep.tau95))
    run.record("tau95.csv")
    return EXIT_OK


# the subcommands that `run` can chain as pipeline stages
_STAGES = {"fom": cmd_fom, "pod": cmd_pod, "rom": cmd_rom, "sweep": cmd_sweep,
           "bounds": cmd_bounds, "spectral": cmd_spectral}


def cmd_run(run):
    cp = run.cp
    stages = [s.strip() for s in cp["pipeline"].get(
        "stages", "fom,pod,rom").split(",")] if cp.has_section("pipeline") \
        else ["fom", "pod", "rom"]
    for stage in stages:
        if stage not in _STAGES:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
        code = _STAGES[stage](run)
        if code != EXIT_OK:
            print(f"stage {stage} failed", file=sys.stderr)
            return code
    return EXIT_OK


# the model instance each `verify --model` choice checks
_VERIFY_SPECS = {
    "gradient_flow": {"spectrum": tuple(np.linspace(0.5, 4.0, 12))},
    "burgers": {"n": 64},
    "advection_diffusion": {"n": 32, "viscosity": 0.05, "initial": "gaussian"}}


def _verify_checks(model_name, seed):
    """Equivalence and soundness rows (name, ok, detail), each measured by
    the analysis function that acceptance criteria 03-07 use."""
    opts = SolverOptions()
    model = benchmodels.build(benchmodels.BenchmarkSpec(
        name=model_name, seed=seed, **_VERIFY_SPECS[model_name]))
    be = make_lmm("backward_euler")
    eye = lspg.scaled_identity(model.dim)
    # one basis, trained on a finer grid than any point of the dt ladder
    train = fom.integrate(model, be, 2.5e-4, 0.04, opts)
    sub = pod.compute_pod(pod.SnapshotSet(vectors=_centered(train.states)),
                          1 - 1e-10, reference=train.states[0]).basis
    dt, T = 1e-2, 0.1
    rows = []
    for name, sch in (("forward_euler", make_lmm("forward_euler")),
                      ("rk4", make_butcher("rk4"))):
        gap = analysis.galerkin_lspg_gap(model, sub, eye, sch, dt, T, opts)
        rows.append((f"explicit equivalence ({name})", gap <= 1e-8,
                     f"max diff {gap:.3e}"))
    # criterion 04's form: strictly decreasing, final/initial <= 1e-2
    gaps = [analysis.galerkin_lspg_gap(model, sub, eye, be, d, 0.04, opts)
            for d in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4)]
    ratio = gaps[-1] / gaps[0]
    rows.append(("limiting equivalence (dt -> 0)",
                 all(b < a for a, b in zip(gaps, gaps[1:])) and ratio <= 1e-2,
                 "diffs " + ", ".join(f"{g:.3e}" for g in gaps)
                 + f"; final/initial {ratio:.3e}"))
    if model_name == "gradient_flow":
        # W = Cholesky factor of (I + dt A)^-1, A = -df/dx SPD
        a = -model.jacobian(model.initial_state, 0.0)
        c = np.linalg.cholesky(np.linalg.inv(np.eye(model.dim) + dt * a)).T
        gap = analysis.galerkin_lspg_gap(
            model, sub, lspg.WeightingOperator(model.dim, factor=c), be, dt,
            T, opts)
        rows.append(("SPD-weighted equivalence", gap <= 1e-8,
                     f"max diff {gap:.3e}"))
    gap = analysis.commutativity_gap(
        model, sub, ((be, dt), (make_butcher("sdirk2"), dt)), 20,
        np.random.default_rng(seed))
    rows.append(("projection/discretization commutativity", gap <= 1e-10,
                 f"max residual gap {gap:.3e}"))
    # bound soundness on a linear model, dt well under the cap 1/kappa
    lin = benchmodels.advection_diffusion(benchmodels.BenchmarkSpec(
        name="advection_diffusion", n=24, viscosity=0.05, seed=seed,
        initial="gaussian"))
    kappa = float(np.linalg.norm(lin.jacobian(lin.initial_state, 0.0), 2))
    dtl = 0.2 / kappa
    refl = fom.integrate(lin, be, dtl, 10 * dtl, opts)
    subl = pod.compute_pod(pod.SnapshotSet(vectors=_centered(refl.states)),
                           0.95, reference=refl.states[0]).basis
    gl = galerkin.integrate_galerkin(lin, subl, be, dtl, 10 * dtl, opts)
    rep = _bound_report(gl, lin, subl, be, kappa, None)
    rows.append(("a posteriori bound soundness (linear)",
                 not analysis.bound_violations(refl, gl, subl, rep,
                                               rtol=1e-9),
                 f"final bound {rep.global_bound:.3e}"))
    return rows


def cmd_verify(run):
    rows = _verify_checks(run.args.model, run.seed)
    width = max(len(r[0]) for r in rows)
    all_ok = True
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name.ljust(width)}  {status}  {detail}")
    write_text(run.path("verify.txt"),
               (f"{name}\t{'PASS' if ok else 'FAIL'}\t{detail}"
                for name, ok, detail in rows))
    run.record("verify.txt")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="morrow",
        description="model-order-reduction experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *_STAGES, "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI experiment config")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--parallel", type=int, default=1)
        if name == "pod":
            p.add_argument("--nu", type=float, default=None)
            p.add_argument("--snapshots", help="snapshot CSV path")
        if name == "sweep":
            p.add_argument("--dt", help="comma-separated dt grid")
            p.add_argument("--rom", help="rom kind override")
        if name == "verify":
            p.add_argument("--model", default="gradient_flow",
                           choices=tuple(_VERIFY_SPECS))
    return parser


_NEEDS_CONFIG = {"run", "fom", "rom", "sweep", "bounds", "spectral"}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    if args.command in _NEEDS_CONFIG and not args.config:
        print(f"{args.command} requires --config", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "pod" and not args.config and not args.snapshots:
        print("pod requires --config or --snapshots", file=sys.stderr)
        return EXIT_USAGE
    try:
        run = _Run(args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    handlers = {"run": cmd_run, **_STAGES, "verify": cmd_verify}
    try:
        code = handlers[args.command](run)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        code = EXIT_USAGE
    except (StepSolveError, GaussNewtonError,
            bounds.BoundHypothesisError) as err:
        step = getattr(err, "time_index", None)
        where = "" if step is None else f" at step {step}"
        print(f"numerical failure{where}: {err}", file=sys.stderr)
        code = EXIT_NUMERICAL
    finally:
        try:
            run.finalize()
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())

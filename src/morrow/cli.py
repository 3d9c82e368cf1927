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
from dataclasses import fields, replace
from functools import cached_property, partial

import numpy as np

from . import analysis, benchmodels, bounds, fom, galerkin, hyperreduction, \
    lspg, pod
from .core import (SolverOptions, TrialSubspace, Trajectory, write_csv,
                   write_text)
from .fom import StepSolveError
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


def _convert(text, kind, label):
    """text as a kind (float or int), else a ConfigError naming label."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{label} is not {noun}")


def _number(cp, section, key, default=None, low=-np.inf, high=np.inf,
            kind=float):
    """[section] key as a float (kind=int: an integer) in [low, high], or
    default when the key is absent; a key without a default is required."""
    value = cp.get(section, key, fallback=None)
    if value is None:
        if default is None:
            raise ConfigError(f"config has no [{section}] {key}")
        return default
    x = _convert(value, kind, f"[{section}] {key} = {value!r}")
    if not low <= x <= high:
        raise ConfigError(f"[{section}] {key} = {value!r} must lie in "
                          f"[{low}, {high}]")
    return x


_integer = partial(_number, kind=int)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _is_unstable(states):
    norms = np.linalg.norm(states, axis=1)
    return bool(np.any(norms > 1e6 * max(norms[0], 1.0)))


def _centered(states):
    """Snapshot matrix with columns x^n - x^0, n >= 1.  C order: the POD's
    column norms sum in a layout-dependent order, and C order keeps the
    basis bitwise equal to one built from stacked columns."""
    return np.ascontiguousarray((states[1:] - states[0]).T)


class _Run:
    """One invocation: its config, output dir and manifest, and what its
    stages share.  The parsed config values, the full-order run and POD
    result at each dt, the configured ROM run and kappa are each computed
    on first use and then kept, so every stage and sweep point reads them
    instead of solving again."""

    def __init__(self, args):
        self.args = args
        self.cp = cp = _load_config(args.config) if args.config \
            else configparser.ConfigParser()
        flag = args.seed is not None
        self.seed = args.seed if flag else _integer(cp, "output", "seed", 0)
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"{'--seed' if flag else '[output] seed'} = "
                              f"{self.seed} must lie in [0, 2**64)")
        self.out = args.out or cp.get("output", "dir", fallback="out")
        os.makedirs(self.out, exist_ok=True)
        self.artifacts = {}
        self.timings = {}
        self.notes = {}
        self._foms = {}  # dt -> (full-order Trajectory, seconds)
        self._pods = {}  # dt -> PodResult

    def path(self, name):
        return os.path.join(self.out, name)

    def emit(self, name, write):
        """Write the artifact name by write(path) and record its hash, once
        per invocation: a later stage that emits it records the same file."""
        if name not in self.artifacts:
            write(self.path(name))
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

    @cached_property
    def model(self):
        cp = self.cp
        sec = _section(cp, "model")
        spectrum = sec.get("spectrum")
        spec = dict(
            name=sec.get("name"), n=_integer(cp, "model", "n", 256),
            viscosity=_number(cp, "model", "viscosity", 0.005),
            speed=_number(cp, "model", "speed", 1.0),
            bc=sec.get("bc", "dirichlet0"), initial=sec.get("initial", "step"),
            spectrum=None if spectrum is None else tuple(
                _convert(v, float, f"[model] spectrum entry {v!r}")
                for v in spectrum.split(",")),
            seed=self.seed)
        try:
            return benchmodels.build(benchmodels.BenchmarkSpec(**spec))
        except ValueError as err:
            raise ConfigError(f"[model] {err}")

    @cached_property
    def scheme(self):
        name = _section(self.cp, "time").get("scheme", "backward_euler")
        try:
            return make_lmm(name) if name in _LMM_NAMES else make_butcher(name)
        except ValueError:
            raise ConfigError(f"unknown [time] scheme {name!r}")

    @cached_property
    def opts(self):
        values = {f.name: _number(self.cp, "solver", f.name, f.default,
                                  kind=type(f.default))
                  for f in fields(SolverOptions)}
        try:
            return SolverOptions(**values)
        except ValueError as err:
            raise ConfigError(f"[solver] {err}")

    @cached_property
    def dt(self):
        dt = _number(self.cp, "time", "dt")
        if dt <= 0.0:
            raise ConfigError(f"[time] dt = {dt} must be positive")
        return dt

    @cached_property
    def T(self):
        return _number(self.cp, "time", "T", low=0.0)

    def steps(self, dt):
        """The number of steps of length dt in [time] T."""
        try:
            return fom._num_steps(dt, self.T)
        except ValueError:
            raise ConfigError(f"T = {self.T} is not a multiple of dt = {dt}")

    @cached_property
    def kind(self):
        """The ROM kind: sweep's --rom, else [rom] kind."""
        kind = getattr(self.args, "rom", None) \
            or self.cp.get("rom", "kind", fallback="galerkin")
        if kind not in ("galerkin", "lspg", "gnat"):
            raise ConfigError(f"unknown rom kind {kind!r}")
        return kind

    @cached_property
    def probe(self):
        return _integer(self.cp, "output", "probe", 0, low=0,
                        high=self.model.dim - 1)

    def fom_at(self, dt):
        """The full-order trajectory at dt, integrated on first use."""
        if dt not in self._foms:
            self.steps(dt)
            t0 = time.perf_counter()
            traj = fom.integrate(self.model, self.scheme, dt, self.T,
                                 self.opts)
            self._foms[dt] = traj, time.perf_counter() - t0
        return self._foms[dt][0]

    def pod_at(self, dt):
        """POD of the centered snapshots of the full-order run at dt: the
        modes that meet the [pod] nu energy criterion, or the leading
        [pod] p modes when p is set.  The singular vectors do not depend on
        nu, so p modes are a slice of the untruncated basis, copied to C
        order so that the ROM does not depend on the slice's layout."""
        if dt not in self._pods:
            nu = _number(self.cp, "pod", "nu", 1.0 - 1e-6, low=0.0, high=1.0)
            p = _integer(self.cp, "pod", "p", 0, low=1)
            if self.steps(dt) == 0:
                raise ConfigError(f"[time] T = {self.T} is shorter than one "
                                  f"step of dt = {dt}: no POD snapshots")
            x = self.fom_at(dt).states
            result = pod.compute_pod(pod.SnapshotSet(vectors=_centered(x)),
                                     1.0 if p else nu, reference=x[0])
            if p:
                result = replace(result, basis=TrialSubspace(
                    basis=np.ascontiguousarray(result.basis.basis[:, :p]),
                    reference=x[0]))
            self._pods[dt] = result
        return self._pods[dt]

    @cached_property
    def fom_run(self):
        """The full-order run at [time] dt, with its trajectory and centered
        snapshots written."""
        traj = self.fom_at(self.dt)
        self.timings["fom"] = self._foms[self.dt][1]
        self.emit("fom_trajectory.csv",
                  partial(fom.write_trajectory_csv, traj))
        snaps = _centered(traj.states)
        if snaps.shape[1]:
            self.emit("snapshots.csv", partial(pod.write_snapshots_csv,
                                               pod.SnapshotSet(vectors=snaps)))
        self.notes["fom_unstable"] = _is_unstable(traj.states)
        return traj

    @cached_property
    def rom_run(self):
        """The configured ROM at [time] dt on the basis of fom_run, as
        (traj, lifted, W) with W the LSPG weighting that ran (None for
        Galerkin); writes the lifted trajectory and the Gauss-Newton
        diagnostics."""
        self.fom_run  # a stage that runs the ROM records the FOM run too
        sub = self.pod_at(self.dt).basis
        W = _weighting(self, sub, self.dt)
        t0 = time.perf_counter()
        traj, reports = _integrate_rom(self, sub, W, self.dt)
        self.timings["rom"] = time.perf_counter() - t0
        lifted = Trajectory(dt=traj.dt,
                            states=sub.reference + traj.states @ sub.basis.T,
                            kind=traj.kind)
        self.emit("rom_trajectory.csv",
                  partial(fom.write_trajectory_csv, lifted))
        if reports:
            self.emit("gn_diagnostics.csv",
                      partial(lspg.write_gn_diagnostics_csv, reports))
        self.notes["rom_unstable"] = _is_unstable(lifted.states)
        return traj, lifted, W

    @cached_property
    def kappa(self):
        """[bounds] kappa, else a Lipschitz estimate sampled around x0."""
        if self.cp.has_option("bounds", "kappa"):
            return _number(self.cp, "bounds", "kappa")
        x0 = np.asarray(self.model.initial_state, float)
        rng = np.random.default_rng(self.seed)
        return bounds.estimate_lipschitz(self.model, [x0] + [
            x0 + 0.1 * rng.standard_normal(x0.size) for _ in range(4)], [0.0])


def _weighting(run, sub, dt, artifact="samples.txt"):
    """The LSPG weighting the config asks for at dt, None for Galerkin;
    GNAT writes its sampled rows to the named artifact."""
    model, cp, scheme = run.model, run.cp, run.scheme
    if run.kind == "galerkin":
        return None
    if run.kind == "lspg":
        spec = cp.get("rom", "weighting", fallback="identity")
        if spec == "identity":
            return lspg.scaled_identity(model.dim)
        if spec.startswith("gamma:"):
            return lspg.scaled_identity(model.dim, _convert(
                spec[6:], float, f"[rom] weighting = {spec!r}"))
        if spec.startswith("collocation:"):
            try:
                rows = hyperreduction.read_sample_set(spec[12:])
            except (OSError, ValueError) as err:
                raise ConfigError(f"[rom] weighting = {spec!r}: {err}")
            return lspg.collocation(model.dim, rows)
        raise ConfigError(f"unknown weighting {spec!r}")
    # GNAT: residual snapshots from a W=I training run on this config
    nu_r = _number(cp, "rom", "nu_residual", 1.0, low=0.0, high=1.0)
    snaps = hyperreduction.collect_residual_snapshots(
        model, sub, scheme, dt, run.T, run.opts)
    if not snaps.vectors.shape[1]:
        raise ConfigError(f"gnat cannot train on [time] scheme "
                          f"{scheme.name!r}: it leaves no residual snapshots")
    rbasis = hyperreduction.build_residual_basis(snaps, nu_r)
    n_samples = _integer(cp, "rom", "n_samples", 2 * rbasis.shape[1])
    n_samples = min(max(n_samples, rbasis.shape[1]), model.dim)
    samples = hyperreduction.select_samples(rbasis, n_samples)
    run.emit(artifact, partial(hyperreduction.write_sample_set, samples))
    return hyperreduction.gnat_weighting(samples, rbasis)


def _integrate_rom(run, sub, W, dt):
    """Galerkin when W is None, LSPG weighted by W otherwise; returns the
    reduced trajectory at dt and the Gauss-Newton reports (none for
    Galerkin)."""
    if W is None:
        return galerkin.integrate_galerkin(run.model, sub, run.scheme, dt,
                                           run.T, run.opts), []
    return lspg.integrate_lspg(run.model, sub, W, run.scheme, dt, run.T,
                               run.opts)


def _write_pod(run, result):
    sub = result.basis
    run.emit("basis.csv", lambda path: write_csv(
        path, [f"phi_{j}" for j in range(sub.p)], sub.basis))
    run.emit("singular_values.csv", lambda path: write_csv(
        path, ["i", "sigma", "cumulative_energy"],
        zip(range(len(result.singular_values)), result.singular_values,
            result.energy_fractions)))


def cmd_fom(run):
    run.fom_run


def cmd_pod(run):
    path = getattr(run.args, "snapshots", None)  # `run` has no --snapshots
    nu = getattr(run.args, "nu", None)  # nor --nu
    if path:
        nu = 1.0 - 1e-6 if nu is None else nu
        if not 0.0 <= nu <= 1.0:
            raise ConfigError(f"--nu = {nu} must lie in [0.0, 1.0]")
        try:
            result = pod.compute_pod(pod.read_snapshots_csv(path), nu)
        except (OSError, ValueError) as err:
            raise ConfigError(f"--snapshots {path!r}: {err}")
    elif nu is not None:
        raise ConfigError("--nu needs --snapshots; a config sets [pod] nu")
    else:
        run.fom_run
        result = run.pod_at(run.dt)
    _write_pod(run, result)


def cmd_rom(run):
    run.kind  # an unknown kind fails before any solve
    probe = run.probe
    traj = run.fom_run
    _write_pod(run, run.pod_at(run.dt))
    _, lifted, _ = run.rom_run
    run.notes["probe_error"] = analysis.trajectory_error(
        lifted.times, lifted.states[:, probe], traj.times,
        traj.states[:, probe])


def _sweep_point(run, index, dt, ref, kappa):
    """The configured ROM at one grid dt on the basis of the full-order run
    at that dt, as the row (dt, error, walltime_s, bound, stable) of a
    SweepResult, with no error or bound when unstable; the bound (when
    kappa is not None) is the one `morrow bounds` reports at that dt."""
    t0 = time.perf_counter()
    try:
        sub = run.pod_at(dt).basis
        W = _weighting(run, sub, dt, artifact=f"samples_{index}.txt")
        traj, _ = _integrate_rom(run, sub, W, dt)
        lifted = sub.reference + traj.states @ sub.basis.T
        wall = time.perf_counter() - t0
        if not _is_unstable(lifted):
            err = analysis.trajectory_error(
                traj.times, lifted[:, run.probe], ref.times,
                ref.states[:, run.probe])
            bval = np.nan
            if kappa is not None:
                try:
                    bval = _bound_report(traj, run.model, sub, run.scheme,
                                         kappa, W).global_bound
                except bounds.BoundHypothesisError:
                    pass  # dt outside the theorem's cap: no bound
            return dt, err, wall, bval, True
    except StepSolveError:
        pass
    return dt, np.nan, time.perf_counter() - t0, np.nan, False


def cmd_sweep(run):
    flag = getattr(run.args, "dt", None)  # `run` has no --dt or --rom
    grid = flag or _section(run.cp, "time").get("dt_grid")
    if grid is None:
        raise ConfigError("sweep needs --dt or [time] dt_grid")
    where = "--dt" if flag else "[time] dt_grid"
    dts = [_convert(v, float, f"{where} entry {v!r}") for v in grid.split(",")]
    diffs = np.diff(dts)
    if not (np.all(diffs > 0) or np.all(diffs < 0)) or min(dts) <= 0.0:
        raise ConfigError("dt grid must be strictly monotone and positive")
    for d in dts:
        run.steps(d)
    run.kind, run.probe  # a bad kind or probe fails before any solve

    # the reference (the full-order run at the finest dt) fills its memo
    # entry before the pool starts, and the monotone grid's dts are
    # distinct, so no two threads fill one entry; the model's callbacks are
    # pure, so the threads share it
    ref = run.fom_at(min(dts))
    kappa = run.kappa if run.cp.has_section("bounds") else None
    with ThreadPoolExecutor(max_workers=max(1, run.args.parallel)) as pool:
        rows = list(pool.map(
            lambda i: _sweep_point(run, i, dts[i], ref, kappa),
            range(len(dts))))
    sweep = analysis.SweepResult(*(np.array(col) for col in zip(*rows)))
    analysis.write_sweep_csv(sweep, run.path("sweep.csv"))
    # timing-free companion so reruns can be compared byte for byte
    sweep.walltime_s = np.zeros_like(sweep.dt)
    run.emit("sweep_notime.csv", partial(analysis.write_sweep_csv, sweep))


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
    run.kind  # an unknown kind fails before any solve
    rom_traj, lifted, W = run.rom_run
    kappa = run.kappa
    rep = _bound_report(rom_traj, run.model, run.pod_at(run.dt).basis,
                        run.scheme, kappa, W)
    run.emit("bound_report.csv", partial(bounds.write_bound_report_csv, rep))
    run.notes["kappa"] = kappa
    run.notes["kappa_caveat"] = "valid modulo kappa under-estimation"
    # the Jacobian's 2-norm at the states the bound visited: a kappa below
    # it under-estimates the Lipschitz constant on this trajectory
    kmax = bounds.max_jacobian_norm(run.model, lifted.states, lifted.times)
    run.notes["kappa_trajectory_max"] = kmax
    run.notes["kappa_underestimated"] = kmax > kappa


def cmd_spectral(run):
    traj = run.fom_run
    sub = run.pod_at(run.dt).basis
    coords = (traj.states - sub.reference) @ sub.basis
    try:
        rep = analysis.spectral_analysis(coords, traj.dt)
    except ValueError as err:
        raise ConfigError(f"spectral: {err}; lengthen [time] T / dt")
    run.emit("psd.csv", lambda path: write_csv(
        path, ["frequency", *(f"mode_{j}" for j in range(sub.p))],
        ((f, *row) for f, row in zip(rep.frequencies, rep.psd))))
    run.emit("tau95.csv", lambda path: write_csv(
        path, ["mode", "tau95"], enumerate(rep.tau95)))


# the subcommands that `run` can chain as pipeline stages
_STAGES = {"fom": cmd_fom, "pod": cmd_pod, "rom": cmd_rom, "sweep": cmd_sweep,
           "bounds": cmd_bounds, "spectral": cmd_spectral}


def cmd_run(run):
    for stage in run.cp.get("pipeline", "stages",
                            fallback="fom,pod,rom").split(","):
        stage = stage.strip()
        if stage not in _STAGES:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
        _STAGES[stage](run)


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
    run.emit("verify.txt", lambda path: write_text(
        path, (f"{name}\t{'PASS' if ok else 'FAIL'}\t{detail}"
               for name, ok, detail in rows)))
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
            p.add_argument("--nu", type=float)
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
    handlers = {"run": cmd_run, **_STAGES, "verify": cmd_verify}
    run = None
    try:
        run = _Run(args)
        code = handlers[args.command](run) or EXIT_OK
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        code = EXIT_USAGE
    except (StepSolveError, bounds.BoundHypothesisError) as err:
        step = getattr(err, "time_index", None)
        where = "" if step is None else f" at step {step}"
        print(f"numerical failure{where}: {err}", file=sys.stderr)
        code = EXIT_NUMERICAL
    finally:
        try:
            if run is not None:
                run.finalize()
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())

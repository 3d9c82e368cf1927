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
from dataclasses import fields, replace
from functools import cached_property, partial

import numpy as np

from . import analysis, benchmodels, bounds, fom, galerkin, hyperreduction, \
    lspg, pod
from .core import SolverOptions, TrialSubspace, lift, write_csv, write_text
from .fom import StepSolveError
from .schemes import ButcherTableau, make_butcher, make_lmm

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_VERIFY = 0, 1, 2, 3

_LMM_NAMES = ("backward_euler", "forward_euler", "bdf2")


class ConfigError(ValueError):
    pass


def _convert(text, kind, label):
    """text as a kind (float, int or str), else a ConfigError naming label."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{label} is not {noun}")


def _floats(text, label):
    """Comma-separated text as floats; a bad entry is a ConfigError."""
    return tuple(_convert(v, float, f"{label} entry {v!r}")
                 for v in text.split(","))


# Every config key, labelled as the README spells it: (type, default, low,
# high).  Type None marks a retired key, accepted and ignored; default
# _REQUIRED a key that must be set, None one whose absence its reader
# handles.  A check that needs more than the text stays at the reader.
_REQUIRED = object()
_GRAMMAR = {
    "[model] name": (str, _REQUIRED),
    "[model] n": (int, 256),
    "[model] viscosity": (float, 0.005),
    "[model] speed": (float, 1.0),
    "[model] bc": (str, "dirichlet0"),
    "[model] initial": (str, "step"),
    "[model] spectrum": (_floats, None),
    "[time] scheme": (str, "backward_euler"),
    "[time] dt": (float, _REQUIRED),
    "[time] T": (float, _REQUIRED, 0.0, np.inf),
    "[time] dt_grid": (_floats, None),
    "[pod] nu": (float, 1.0 - 1e-6, 0.0, 1.0),
    "[pod] p": (int, 0, 1, np.inf),
    "[rom] kind": (str, "galerkin"),
    "[rom] weighting": (str, "identity"),
    "[rom] nu_residual": (float, 1.0, 0.0, 1.0),
    "[rom] n_samples": (int, None),
    **{f"[solver] {f.name}": (type(f.default), f.default)
       for f in fields(SolverOptions)},
    "[solver] fd_step": (None, None),
    "[bounds] kappa": (float, None),
    "[output] dir": (str, "out"),
    "[output] seed": (int, 0),
    "[output] probe": (int, 0),
    "[pipeline] stages": (str, "fom,pod,rom"),
}
# configparser lowercases keys (T reads as t): labels match in lower case
_LABELS = {label.lower(): label for label in _GRAMMAR}
_SECTIONS = {label.split()[0] for label in _GRAMMAR}


def _unknown(what, name, known):
    """A ConfigError naming an unknown section or key and the nearest known."""
    import difflib  # here, so that only a config error pays for loading it
    near, = difflib.get_close_matches(name, known, n=1, cutoff=0.0)
    return ConfigError(f"unknown config {what} {name}; did you mean {near}?")


def _load_config(path):
    """(sections, {label: value}) of the config at path, read by _GRAMMAR."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
        texts = {section: dict(cp[section]) for section in cp.sections()}
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except configparser.Error as err:  # interpolation ('%') errors too
        raise ConfigError(f"config parse error: {err}")
    for key in cp.defaults():  # copied into every section: reported once
        raise _unknown("key", f"[DEFAULT] {key}", _GRAMMAR)
    values = {}
    for section, items in texts.items():
        if f"[{section}]" not in _SECTIONS:
            raise _unknown("section", f"[{section}]", _SECTIONS)
        for key, text in items.items():
            label = _LABELS.get(f"[{section}] {key}")
            if label is None:
                raise _unknown("key", f"[{section}] {key}", _GRAMMAR)
            kind, _, *span = _GRAMMAR[label]
            value = _floats(text, label) if kind is _floats \
                else _convert(text, kind or str, f"{label} = {text!r}")
            if span and not span[0] <= value <= span[1]:
                raise ConfigError(f"{label} = {text!r} must lie in "
                                  f"[{span[0]}, {span[1]}]")
            values[label] = value
    return set(texts), values


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
    """One invocation: its config (read whole, before any solve), output
    dir and manifest, and what its stages share.  The full-order run and
    POD result at each dt, the configured ROM run and kappa are each
    computed on first use and kept, so every stage and sweep point reads
    them instead of solving again."""

    def __init__(self, args):
        self.args = args
        self.sections, self.config = _load_config(args.config) \
            if args.config else (set(), {})
        flag = args.seed is not None
        self.seed = args.seed if flag else self.get("[output] seed")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"{'--seed' if flag else '[output] seed'} = "
                              f"{self.seed} must lie in [0, 2**64)")
        if args.parallel < 1:
            raise ConfigError(f"--parallel = {args.parallel} must be positive")
        # the ROM kind: sweep's --rom, else [rom] kind
        self.kind = getattr(args, "rom", None) or self.get("[rom] kind")
        if self.kind not in ("galerkin", "lspg", "gnat"):
            raise ConfigError(f"unknown rom kind {self.kind!r}")
        self.out = args.out or self.get("[output] dir")
        os.makedirs(self.out, exist_ok=True)
        self.artifacts = {}
        self.timings = {}
        retired = [k for k in self.config if _GRAMMAR[k][0] is None]
        self.notes = {"ignored_retired_keys": retired} if retired else {}
        self._foms = {}  # dt -> (full-order Trajectory, seconds)
        self._pods = {}  # dt -> PodResult

    def get(self, label):
        """The config key label's value, else its default (if it has one)."""
        value = self.config.get(label, _GRAMMAR[label][1])
        if value is _REQUIRED:
            raise ConfigError(f"config has no {label}")
        return value

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
        spec = {key: self.get(f"[model] {key}") for key in (
            "name", "n", "viscosity", "speed", "bc", "initial", "spectrum")}
        try:
            return benchmodels.build(benchmodels.BenchmarkSpec(
                **spec, seed=self.seed))
        except ValueError as err:
            raise ConfigError(f"[model] {err}")

    @cached_property
    def scheme(self):
        name = self.get("[time] scheme")
        try:
            return make_lmm(name) if name in _LMM_NAMES else make_butcher(name)
        except ValueError:
            raise ConfigError(f"unknown [time] scheme {name!r}")

    @cached_property
    def opts(self):
        try:
            return SolverOptions(**{f.name: self.get(f"[solver] {f.name}")
                                    for f in fields(SolverOptions)})
        except ValueError as err:
            raise ConfigError(f"[solver] {err}")

    @cached_property
    def dt(self):
        dt = self.get("[time] dt")
        if dt <= 0.0:
            raise ConfigError(f"[time] dt = {dt} must be positive")
        return dt

    @cached_property
    def T(self):
        return self.get("[time] T")

    def steps(self, dt):
        """The number of steps of length dt in [time] T."""
        try:
            return fom._num_steps(dt, self.T)
        except ValueError:
            raise ConfigError(f"T = {self.T} is not a multiple of dt = {dt}")

    @cached_property
    def probe(self):
        probe, high = self.get("[output] probe"), self.model.dim - 1
        if not 0 <= probe <= high:
            raise ConfigError(f"[output] probe = {str(probe)!r} must lie in "
                              f"[0, {high}]")
        return probe

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
            nu, p = self.get("[pod] nu"), self.get("[pod] p")
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
        lifted = lift(sub, traj)
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
        if (kappa := self.get("[bounds] kappa")) is not None:
            return kappa
        x0 = np.asarray(self.model.initial_state, float)
        rng = np.random.default_rng(self.seed)
        return bounds.estimate_lipschitz(self.model, [x0] + [
            x0 + 0.1 * rng.standard_normal(x0.size) for _ in range(4)], [0.0])


def _weighting(run, sub, dt, artifact="samples.txt"):
    """The LSPG weighting the config asks for at dt, None for Galerkin;
    GNAT writes its sampled rows to the named artifact."""
    model, scheme = run.model, run.scheme
    if run.kind == "galerkin":
        return None
    if run.kind == "lspg":
        spec = run.get("[rom] weighting")
        if spec == "identity":
            return lspg.scaled_identity(model.dim)
        if spec.startswith("gamma:"):
            return lspg.scaled_identity(model.dim, _convert(
                spec[6:], float, f"[rom] weighting = {spec!r}"))
        if spec.startswith("collocation:"):
            try:
                return lspg.collocation(
                    model.dim, hyperreduction.read_sample_set(spec[12:]))
            except (OSError, ValueError) as err:
                raise ConfigError(f"[rom] weighting = {spec!r}: {err}")
        raise ConfigError(f"unknown weighting {spec!r}")
    # GNAT: residual snapshots from a W=I training run on this config
    snaps = hyperreduction.collect_residual_snapshots(
        model, sub, scheme, dt, run.T, run.opts)
    if not snaps.vectors.shape[1]:
        raise ConfigError(f"gnat cannot train on [time] scheme "
                          f"{scheme.name!r}: it leaves no residual snapshots")
    rbasis = hyperreduction.build_residual_basis(
        snaps, run.get("[rom] nu_residual"))
    q, n = rbasis.shape[1], run.get("[rom] n_samples")
    n_samples = min(max(2 * q if n is None else n, q), model.dim)
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
        nu = _GRAMMAR["[pod] nu"][1] if nu is None else nu
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
    probe = run.probe
    traj = run.fom_run
    _write_pod(run, run.pod_at(run.dt))
    _, lifted, _ = run.rom_run
    run.notes["probe_error"] = analysis.trajectory_error(
        lifted.times, lifted.states[:, probe], traj.times,
        traj.states[:, probe])


def _sweep_point(run, dts, kappa, index):
    """The configured ROM at grid point index on the basis of the full-order
    run at its dt, as (row, probe, artifacts, memo): the SweepResult row
    (dt, walltime_s, bound, stable) without its error, where the bound is
    `morrow bounds`'s (or NaN); the lifted probe series (None if unstable);
    and the artifact hashes and _foms and _pods entries the point filled,
    taken out of run for the caller to merge, as a forked worker's are."""
    dt = dts[index]
    before = {name: set(getattr(run, name))
              for name in ("artifacts", "_foms", "_pods")}
    t0 = time.perf_counter()
    bval, probe = np.nan, None
    try:
        sub = run.pod_at(dt).basis
        W = _weighting(run, sub, dt, artifact=f"samples_{index}.txt")
        traj, _ = _integrate_rom(run, sub, W, dt)
        lifted = lift(sub, traj).states
        wall = time.perf_counter() - t0
        if not _is_unstable(lifted):
            if kappa is not None:
                try:
                    bval = _bound_report(traj, run.model, sub, run.scheme,
                                         kappa, W).global_bound
                except bounds.BoundHypothesisError:
                    pass  # dt outside the theorem's cap: no bound
            probe = lifted[:, run.probe].copy()  # frees lifted
    except StepSolveError:
        pass
    if probe is None:
        wall = time.perf_counter() - t0
    artifacts, *memo = ({key: getattr(run, name).pop(key)
                         for key in set(getattr(run, name)) - keys}
                        for name, keys in before.items())
    return (dt, wall, bval, probe is not None), probe, artifacts, memo


def _start_sweep_worker(point):
    """Keeps a forked sweep worker's point function, bound to its run."""
    global _worker_point
    _worker_point = point


def _worker_sweep_point(index):
    return _worker_point(index)


def cmd_sweep(run):
    import multiprocessing  # here, so that only a sweep pays for loading it
    from concurrent.futures import ProcessPoolExecutor
    flag = getattr(run.args, "dt", None)  # `run` has no --dt or --rom
    dts = _floats(flag, "--dt") if flag else run.get("[time] dt_grid")
    if dts is None:
        raise ConfigError("sweep needs --dt or [time] dt_grid")
    diffs = np.diff(dts)
    if not (np.all(diffs > 0) or np.all(diffs < 0)) or min(dts) <= 0.0:
        raise ConfigError("dt grid must be strictly monotone and positive")
    for d in dts:
        run.steps(d)
    run.probe  # a bad probe fails before any solve
    kappa = run.kappa if "bounds" in run.sections else None

    # the longest point first.  Forked workers inherit the run and its model,
    # whose callbacks cannot be pickled: only indices and results cross
    order = sorted(range(len(dts)), key=dts.__getitem__)
    point = partial(_sweep_point, run, dts, kappa)
    workers = min(run.args.parallel, len(dts))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_start_sweep_worker, initargs=(point,)) as pool:
            results = list(pool.map(_worker_sweep_point, order))
    else:
        results = list(map(point, order))
    for _, _, _, (foms, pods) in results:
        run._foms.update(foms)
        run._pods.update(pods)
    # not in the memo only when the finest point's full-order run failed:
    # this integrates it again and raises before any point's file is recorded
    ref = run.fom_at(min(dts))
    rows = [None] * len(dts)
    for index, (row, probe, artifacts, _) in zip(order, results):
        run.artifacts.update(artifacts)
        err = np.nan if probe is None else analysis.trajectory_error(
            row[0] * np.arange(len(probe)), probe, ref.times,
            ref.states[:, run.probe])
        rows[index] = row[0], err, *row[1:]
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
    for stage in run.get("[pipeline] stages").split(","):
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

"""Span recorder that instruments morrow from the outside.

``Recorder.install()`` replaces public module attributes of morrow (and a
few private helpers where the public surface hides the work, such as the
Gauss-Newton loop) with wrappers that record one span per call: name,
start, end, parent span and thread id, plus a few call facts (matrix size,
iteration counts).  ``uninstall()`` restores the originals, so untraced
passes run the unmodified program.  Spans stay in memory until the
benchmark asks for them.

Targets are looked up by name and skipped when absent, so a later change
that removes a helper (say, dense ``lu_factor`` in ``morrow.fom``) simply
drives the matching counters to zero.
"""

import functools
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

# span fields: [id, name, start, end, parent id or None, thread id, info]
SID, NAME, START, END, PARENT, TID, INFO = range(7)

LAYERS = ("benchmodels", "fom", "pod", "galerkin", "lspg", "hyperreduction",
          "bounds", "analysis", "cli", "bench")


def nbytes(obj):
    """Bytes held by a dense array, a scipy.sparse matrix or a tuple of
    them (as returned by lu_factor)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(o) for o in obj)
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, info=None):
        """Return fn wrapped in a span; info(args, kwargs, result) may
        attach a dict of call facts, computed outside the span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name) as block:
                out = fn(*args, **kwargs)
            if info:
                block.record[INFO] = info(args, kwargs, out)
            return out

        return wrapper

    def span(self, name):
        """Context manager recording a span around a block."""
        return _Block(self, name)

    def patch(self, owner, attr, replacement):
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap morrow's layers; call uninstall() to undo."""
        from morrow import (analysis, benchmodels, bounds, cli, core, fom,
                            galerkin, hyperreduction, lspg, pod)
        w = self.wrap

        def timed_model(model, prefix, jac_info=None):
            return core.Model(
                dim=model.dim,
                velocity=w(model.velocity, prefix + ".velocity"),
                jacobian=w(model.jacobian, prefix + ".jacobian", jac_info),
                initial_state=model.initial_state)

        def builder(fn):
            # the Model a builder returns carries timed callbacks, so every
            # caller (the benchmark, cli, galerkin) is traced alike
            def build(*args, **kwargs):
                return timed_model(fn(*args, **kwargs), "benchmodels",
                                   jac_info=lambda a, k, out:
                                   {"bytes": nbytes(out)})
            return w(functools.wraps(fn)(build), "benchmodels.build")

        for attr in ("burgers1d", "advection_diffusion", "gradient_flow_spd"):
            self.patch(benchmodels, attr, builder)

        def facts(**getters):
            return lambda a, k, out: {key: g(a, out)
                                      for key, g in getters.items()}

        plain = [
            (fom, "integrate", facts(steps=lambda a, out: len(out) - 1)),
            (fom, "lmm_residual", None),
            (fom, "lmm_residual_jacobian",
             facts(bytes=lambda a, out: nbytes(out))),
            (fom, "lu_factor", facts(n=lambda a, out: a[0].shape[0],
                                     bytes=lambda a, out: nbytes(out))),
            (fom, "lu_solve", None),
            (pod, "compute_pod", facts(p=lambda a, out: out.basis.p)),
            (galerkin, "integrate_galerkin", None),
            (lspg, "integrate_lspg", None),
            (lspg, "solve_lspg_step_lmm", None),
            (lspg, "solve_lspg_rk_stage", None),
            (lspg, "compute_test_basis", None),
            (hyperreduction, "collect_residual_snapshots",
             facts(cols=lambda a, out: out.vectors.shape[1])),
            (hyperreduction, "build_residual_basis",
             facts(q=lambda a, out: out.shape[1])),
            (hyperreduction, "select_samples",
             facts(count=lambda a, out: out.count,
                   n=lambda a, out: a[0].shape[0])),
            (hyperreduction, "gnat_weighting", None),
            (bounds, "estimate_lipschitz", None),
            (bounds, "local_aposteriori_lmm",
             facts(steps=lambda a, out: len(out))),
            (bounds, "global_aposteriori_lmm", None),
            (bounds, "simplified_global_bounds", None),
            (analysis, "trajectory_error", None),
            (analysis, "write_sweep_csv", None),
            (cli, "main", None),
            (cli, "_sha256", None),
        ]
        for module, attr, info in plain:
            name = f"{module.__name__.split('.')[-1]}.{attr.lstrip('_')}"
            self.patch(module, attr, lambda fn, name=name, info=info:
                       w(fn, name, info))

        # the reduced model's callbacks hold the Phi^T f and Phi^T J Phi
        # products, which run inside fom's residual functions
        self.patch(galerkin, "make_galerkin_model", lambda fn: w(
            lambda *a, **k: timed_model(fn(*a, **k), "galerkin"),
            "galerkin.make_model"))

        def gauss_newton(fn):
            # counts residual evaluations, so line-search backtracks show
            def run(residual, *args, **kwargs):
                calls = [0]

                def counted(y):
                    calls[0] += 1
                    return residual(y)
                return fn(counted, *args, **kwargs), calls[0]

            traced = w(run, "lspg.gauss_newton",
                       lambda a, k, out: {"iters": out[0][1].iterations,
                                          "residual_calls": out[1]})
            return functools.wraps(fn)(lambda *a, **k: traced(*a, **k)[0])

        self.patch(lspg, "_gauss_newton", gauss_newton)

        rows = facts(rows=lambda a, out: out.shape[0])
        for attr in ("apply", "apply_mat", "gram_mat"):
            self.patch(lspg.WeightingOperator, attr,
                       lambda fn, attr=attr: w(fn, f"lspg.weighting_{attr}",
                                               rows))
        self.patch(cli._Run, "finalize",
                   lambda fn: w(fn, "cli.finalize"))


class _Block:
    def __init__(self, rec, name):
        self.rec, self.name = rec, name

    def __enter__(self):
        stack = self.rec._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.rec._ids)
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self.rec._stack().pop()
        self.record = [self.sid, self.name, self.t0, self.t1, self.parent,
                       threading.get_ident(), None]
        # list.append is atomic under the interpreter lock
        self.rec.spans.append(self.record)
        return False


@dataclass
class SpanTree:
    """Spans of one traced pass with derived durations and self times."""

    spans: list
    root: int  # id of the benchmark's pass span

    def __post_init__(self):
        self.by_id = {s[SID]: s for s in self.spans}
        child = {}
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] = (child.get(s[PARENT], 0.0)
                                    + s[END] - s[START])
        self.self_time = {s[SID]: s[END] - s[START] - child.get(s[SID], 0.0)
                          for s in self.spans}
        self.main_tid = self.by_id[self.root][TID]

    def named(self, *names):
        return [s for s in self.spans if s[NAME] in names]

    def ancestors(self, s):
        while s[PARENT] is not None:
            s = self.by_id[s[PARENT]]
            yield s[NAME]

    def total(self, *names):
        return _duration(self.named(*names))

    def self_of(self, *names):
        return sum(self.self_time[s[SID]] for s in self.named(*names))

    def info_sum(self, key, *names):
        return sum(_fact(s, key) for s in self.named(*names))


def _fact(s, key):
    # calls that raised carry no facts
    return (s[INFO] or {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _duration(spans):
    return sum(s[END] - s[START] for s in spans)


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def _in_fom(tree, s):
    # a full-order step solve: under fom.integrate but not under the
    # Galerkin ROM, which reuses fom.integrate on the reduced model
    names = [s[NAME], *tree.ancestors(s)]
    return ("fom.integrate" in names
            and "galerkin.integrate_galerkin" not in names)


def layer_metrics(tree, sweep_threads):
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    t = tree
    m = {}
    m["benchmodels.velocity_calls"] = len(t.named("benchmodels.velocity"))
    m["benchmodels.velocity_s"] = t.total("benchmodels.velocity")
    m["benchmodels.jacobian_calls"] = len(t.named("benchmodels.jacobian"))
    m["benchmodels.jacobian_s"] = t.total("benchmodels.jacobian")

    # full-order solves only; lmm_residual_jacobian alone counts every
    # caller (LSPG, GNAT training and the bounds call it too)
    def fom_spans(*names):
        return [s for s in t.named(*names) if _in_fom(t, s)]

    factor = fom_spans("fom.lu_factor")
    residual = fom_spans("fom.lmm_residual")
    steps = sum(_fact(s, "steps") for s in fom_spans("fom.integrate"))
    dense = fom_spans("benchmodels.jacobian", "fom.lmm_residual_jacobian",
                      "fom.lu_factor")
    m["fom.newton_iters"] = len(factor)
    m["fom.newton_iters_per_step"] = _ratio(len(factor), steps)
    m["fom.residual_calls"] = len(residual)
    m["fom.residual_s"] = _duration(residual)
    m["fom.residual_jacobian_s"] = t.self_of("fom.lmm_residual_jacobian")
    m["fom.factorize_calls"] = len(factor)
    m["fom.factorize_s"] = _duration(factor)
    m["fom.solve_s"] = _duration(fom_spans("fom.lu_solve"))
    m["fom.factorize_flops"] = sum(2.0 / 3.0 * _fact(s, "n") ** 3
                                   for s in factor)
    m["fom.dense_bytes_per_iter"] = _ratio(
        sum(_fact(s, "bytes") for s in dense), len(factor))

    m["pod.compute_s"] = t.total("pod.compute_pod")
    m["pod.modes"] = max([_fact(s, "p") for s in t.named("pod.compute_pod")
                          if "hyperreduction.build_residual_basis"
                          not in t.ancestors(s)], default=0)

    gal = [s for s in t.spans if s[NAME].startswith("galerkin.")]
    m["galerkin.integrate_self_s"] = sum(t.self_time[s[SID]] for s in gal)

    gn = t.named("lspg.gauss_newton")
    gn_iters = sum(_fact(s, "iters") for s in gn)
    weighting = [s for s in t.spans
                 if s[NAME].startswith("lspg.weighting_")]
    applied = [_fact(s, "rows") for s in weighting
               if s[NAME] != "lspg.weighting_gram_mat"]
    m["lspg.gn_iters"] = gn_iters
    m["lspg.gn_iters_per_step"] = _ratio(gn_iters, len(gn))
    m["lspg.residual_evals_per_gn_iter"] = _ratio(
        sum(_fact(s, "residual_calls") for s in gn) - len(gn), gn_iters)
    m["lspg.step_self_s"] = t.self_of(
        "lspg.solve_lspg_step_lmm", "lspg.solve_lspg_rk_stage",
        "lspg.gauss_newton")
    m["lspg.weighting_calls"] = len(weighting)
    m["lspg.weighting_s"] = _duration(weighting)
    m["lspg.weighted_rows"] = _mean(applied)
    m["lspg.test_basis_calls"] = len(t.named("lspg.compute_test_basis"))
    m["lspg.test_basis_s"] = t.total("lspg.compute_test_basis")

    select = t.named("hyperreduction.select_samples")
    m["hyperreduction.collect_s"] = t.total(
        "hyperreduction.collect_residual_snapshots")
    m["hyperreduction.residual_snapshots"] = t.info_sum(
        "cols", "hyperreduction.collect_residual_snapshots")
    basis = t.named("hyperreduction.build_residual_basis")
    m["hyperreduction.basis_s"] = _duration(basis)
    m["hyperreduction.select_s"] = t.total("hyperreduction.select_samples")
    m["hyperreduction.weighting_build_s"] = t.total(
        "hyperreduction.gnat_weighting")
    m["hyperreduction.residual_modes"] = _mean(
        [_fact(s, "q") for s in basis])
    m["hyperreduction.samples"] = _mean([_fact(s, "count") for s in select])
    m["hyperreduction.sample_fraction"] = _mean(
        [_fact(s, "count") / _fact(s, "n") for s in select if s[INFO]])

    m["bounds.lipschitz_s"] = t.total("bounds.estimate_lipschitz")
    m["bounds.local_self_s"] = t.self_of("bounds.local_aposteriori_lmm")
    m["bounds.global_s"] = t.total("bounds.global_aposteriori_lmm",
                                   "bounds.simplified_global_bounds")
    m["bounds.steps"] = t.info_sum("steps", "bounds.local_aposteriori_lmm")

    m["analysis.trajectory_error_calls"] = len(
        t.named("analysis.trajectory_error"))
    m["analysis.trajectory_error_s"] = t.total("analysis.trajectory_error")

    main_s = t.total("cli.main")
    busy = _duration([s for s in t.spans
                      if s[TID] != t.main_tid and s[PARENT] is None])
    m["cli.main_s"] = main_s
    m["cli.thread_busy_share"] = _ratio(busy, main_s * sweep_threads)
    m["cli.write_s"] = t.total("analysis.write_sweep_csv", "cli.sha256",
                               "cli.finalize")

    # self time of every span, by layer, summed over threads; on the pass
    # thread every span nests in the pass span, so these self times add up
    # to trace.wall_s by construction
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for s in t.spans:
        m[s[NAME].split(".")[0] + ".self_s"] += t.self_time[s[SID]]
    wall = t.total("bench.pass")
    m["trace.wall_s"] = wall
    # time of the pass spent outside every traced morrow call
    m["trace.untraced_share"] = _ratio(t.self_time[t.root], wall)
    return m

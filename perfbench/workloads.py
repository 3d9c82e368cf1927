"""The three benchmark workloads, driven through morrow's public API and CLI.

Each workload has ``setup()`` (inputs from the seed, config generation and
a warm-up pass on a tiny instance), ``run(res)`` (one timed pass, filling
a PassResult with stage times, operation counts and the outputs to check)
and ``check()``
(output checks against the tolerances recorded in ``expected.json``).

burgers_online      Burgers, backward Euler, N = 1024: FOM, POD, Galerkin,
                    LSPG, GNAT training and GNAT.  Dense N x N Jacobian
                    assembly, lmm_residual_jacobian and lu_factor dominate,
                    so a sparse operator or sample-mesh GNAT shows here.
burgers_bounds      Burgers, BDF2, N = 512, dt = 5e-5: Galerkin and LSPG
                    ROMs plus Lipschitz estimate and local, global and
                    simplified a posteriori bounds.  The N x N oblique
                    projector of the LSPG local bound dominates.
gradflow_rk_sweep   ``morrow sweep --parallel 2 --rom gnat`` on a dense SPD
                    gradient flow (N = 512, SDIRK2): Runge-Kutta stage
                    solves, a constant dense Jacobian, two sweep threads,
                    CLI config handling, CSV writing and hashing.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from morrow import (benchmodels, bounds, cli, fom, galerkin, hyperreduction,
                    lspg, pod)
from morrow.core import Model, SolverOptions, reconstruct
from morrow.schemes import make_lmm

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


@dataclass
class PassResult:
    """Stage times (s), operations attempted and failed, outputs."""

    stages: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def op(self, stage, fn, ok=lambda out: True):
        """Run one operation, adding its time to ``stage``; an operation
        fails when it raises or its result fails ``ok``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            raise
        finally:
            self.stages[stage] = (self.stages.get(stage, 0.0)
                                  + time.perf_counter() - t0)
        if not ok(out):
            self.failed += 1
        return out


def _converged(result):
    return all(r.converged for r in result[1])


def _states(traj):
    return np.array([np.asarray(x, float) for x in traj.states])


def _lifted(sub, traj):
    return np.array([reconstruct(sub, y) for y in traj.states])


class _Burgers:
    """Burgers instance: the benchmodels callbacks with a seeded smooth
    perturbation of the initial state."""

    n = 1024
    scheme = "backward_euler"
    dt = 2e-3
    steps = 50
    warmup_n = 32
    warmup_steps = 4

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.opts = SolverOptions()

    def spec(self, n):
        return benchmodels.BenchmarkSpec(name="burgers", n=n, viscosity=0.01,
                                         bc="dirichlet0", initial="step")

    def perturbation(self, n):
        # sin(k pi x) vanishes at both Dirichlet walls
        x = np.arange(1, n + 1) / (n + 1)
        return 0.01 * sum(a * np.sin((k + 1) * np.pi * x)
                          for k, a in enumerate(self.amplitudes))

    def model(self, n):
        # looked up at call time, so a traced builder is picked up
        base = benchmodels.burgers1d(self.spec(n))
        return Model(dim=base.dim, velocity=base.velocity,
                     jacobian=base.jacobian,
                     initial_state=base.initial_state + self.perturbation(n))

    def setup(self):
        self.amplitudes = self.rng.standard_normal(3)
        self.model(self.n)
        self.pipeline(self.warmup_n, self.warmup_steps, PassResult())

    def run(self, res):
        self.pipeline(self.n, self.steps, res)


class BurgersOnline(_Burgers):
    def pipeline(self, n, steps, res):
        model = self.model(n)
        scheme = make_lmm(self.scheme)
        dt, T, opts = self.dt, steps * self.dt, self.opts
        x = _states(res.op("fom_s", lambda: fom.integrate(
            model, scheme, dt, T, opts)))
        basis = res.op("offline_s", lambda: pod.compute_pod(
            pod.SnapshotSet(vectors=(x[1:] - x[0]).T), 0.9999,
            reference=x[0])).basis
        gal = res.op("galerkin_s", lambda: galerkin.integrate_galerkin(
            model, basis, scheme, dt, T, opts))
        lsp = res.op("lspg_s", lambda: lspg.integrate_lspg(
            model, basis, lspg.scaled_identity(n), scheme, dt, T, opts),
            _converged)

        def train():
            snaps = hyperreduction.collect_residual_snapshots(
                model, basis, scheme, dt, T, opts)
            rbasis = hyperreduction.build_residual_basis(snaps, 0.9999)
            samples = hyperreduction.select_samples(rbasis,
                                                    2 * rbasis.shape[1])
            return hyperreduction.gnat_weighting(samples, rbasis), samples

        w_gnat, samples = res.op("offline_s", train)
        gnat = res.op("gnat_s", lambda: lspg.integrate_lspg(
            model, basis, w_gnat, scheme, dt, T, opts), _converged)
        res.outputs = dict(fom=x, basis=basis, galerkin=gal, lspg=lsp,
                           gnat=gnat, samples=samples.count, n=n)

    def check(self, out):
        tol = EXPECTED["burgers_online"]["max_relative_error"]
        x = out["fom"]
        scale = np.max(np.linalg.norm(x, axis=1))
        problems = []
        if not np.all(np.isfinite(x)):
            problems.append("FOM trajectory is not finite")
        for kind in ("galerkin", "lspg", "gnat"):
            result = out[kind]
            traj = result if kind == "galerkin" else result[0]
            if kind != "galerkin" and not _converged(result):
                problems.append(f"{kind}: a Gauss-Newton step did not "
                                "converge")
            err = np.max(np.linalg.norm(_lifted(out["basis"], traj) - x,
                                        axis=1)) / scale
            if not err <= tol[kind]:
                problems.append(f"{kind}: relative error {err:.3e} > "
                                f"{tol[kind]:.1e}")
        if not out["samples"] < out["n"]:
            problems.append(f"GNAT samples {out['samples']} of "
                            f"{out['n']} rows")
        return problems


class BurgersBounds(_Burgers):
    n = 512
    scheme = "bdf2"
    dt = 5e-5
    steps = 100
    warmup_steps = 6
    # the backward-Euler startup step makes h smallest; epsilon = 0.4 keeps
    # dt below |alpha_0*|(1 - epsilon)/(kappa |beta_0*|) for kappa ~ 1.05e4
    epsilon = 0.4

    def lipschitz_samples(self, x0):
        rng = np.random.default_rng([self.seed, len(x0)])
        return [x0] + [x0 + 0.1 * rng.standard_normal(len(x0))
                       for _ in range(4)]

    def pipeline(self, n, steps, res):
        model = self.model(n)
        scheme = make_lmm(self.scheme)
        dt, T, opts = self.dt, steps * self.dt, self.opts
        x = _states(res.op("fom_s", lambda: fom.integrate(
            model, scheme, dt, T, opts)))
        basis = res.op("offline_s", lambda: pod.compute_pod(
            pod.SnapshotSet(vectors=(x[1:] - x[0]).T), 0.9999,
            reference=x[0])).basis
        w_ident = lspg.scaled_identity(n)
        roms = {
            "galerkin": res.op("galerkin_s", lambda:
                               galerkin.integrate_galerkin(
                                   model, basis, scheme, dt, T, opts)),
            "lspg": res.op("lspg_s", lambda: lspg.integrate_lspg(
                model, basis, w_ident, scheme, dt, T, opts), _converged)[0],
        }
        samples = self.lipschitz_samples(model.initial_state)
        kappa = res.op("bound_s", lambda: bounds.estimate_lipschitz(
            model, samples, [0.0]))
        reports = {}
        for kind, traj in roms.items():
            local = res.op("bound_s", lambda: bounds.local_aposteriori_lmm(
                traj, kind, model, basis, scheme, kappa, w_ident))
            reports[kind] = (
                res.op("bound_s", lambda: bounds.global_aposteriori_lmm(
                    local, kind)),
                res.op("bound_s", lambda: bounds.simplified_global_bounds(
                    local, scheme, kappa, dt, "aposteriori", kind=kind,
                    epsilon=self.epsilon)),
                local)
        res.outputs = dict(fom=x, basis=basis, roms=roms, reports=reports,
                           kappa=kappa)

    def check(self, out):
        x = out["fom"]
        problems = []
        for kind, traj in out["roms"].items():
            err = np.linalg.norm(_lifted(out["basis"], traj) - x, axis=1)
            # a failed bound hypothesis raises in local_aposteriori_lmm,
            # which fails the bound_s operation and the pass
            glob, simple, _ = out["reports"][kind]
            for label, rep in (("global", glob), ("simplified", simple)):
                short = np.nonzero(rep.per_step_bound < err)[0]
                if short.size:
                    problems.append(
                        f"{kind}: {label} bound below the error at step "
                        f"{short[0]} (kappa = {out['kappa']:.4g})")
        return problems


def sweep_config(n):
    """INI text of the gradient-flow sweep with an n-point spectrum."""
    spectrum = ",".join(repr(float(v)) for v in np.geomspace(0.1, 50.0, n))
    return (
        "[model]\nname = gradient_flow\nspectrum = " + spectrum + "\n"
        "[time]\nscheme = sdirk2\ndt = 0.02\nT = 0.2\n"
        "dt_grid = 0.02,0.01,0.005,0.0025\n"
        "[pod]\nnu = 0.9999\n"
        "[rom]\nkind = gnat\nnu_residual = 0.9999\n"
        "[output]\nprobe = 5\n")


def read_sweep(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh
                if line.strip()]
    return rows


# instances (CLI seeds 0 .. INSTANCES - 1) recorded in expected.json
INSTANCES = 32


def cli_seed(seed):
    """The sweep runs one of the recorded instances in expected.json."""
    return seed % INSTANCES


class GradflowSweep:
    n = 512
    warmup_n = 16
    threads = 2

    def __init__(self, seed, out_dir):
        self.seed = cli_seed(seed)
        self.out_dir = out_dir
        self.manifests = []

    def sweep(self, config, out, seed):
        return cli.main(["sweep", "--config", config, "--out", out,
                         "--seed", str(seed), "--parallel", str(self.threads),
                         "--rom", "gnat"])

    def setup(self):
        os.makedirs(self.out_dir, exist_ok=True)
        self.config = os.path.join(self.out_dir, "gradflow.ini")
        warm = os.path.join(self.out_dir, "warmup.ini")
        for path, n in ((self.config, self.n), (warm, self.warmup_n)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(sweep_config(n))
        self.sweep(warm, os.path.join(self.out_dir, "warmup"), self.seed)

    def run(self, res):
        out = os.path.join(self.out_dir, "sweep")
        code = res.op("cli_s", lambda: self.sweep(self.config, out,
                                                   self.seed),
                      lambda code: code == 0)
        rows = read_sweep(os.path.join(out, "sweep_notime.csv"))
        res.attempted += len(rows)
        res.failed += sum(r["stable"] != "1" for r in rows)
        with open(os.path.join(out, "manifest.json"), "rb") as fh:
            self.manifests.append(hashlib.sha256(fh.read()).hexdigest())
        res.outputs = dict(code=code, rows=rows, points=len(rows),
                           write_bytes=sum(
                               os.path.getsize(os.path.join(out, f))
                               for f in os.listdir(out)))

    def check(self, out):
        rec = EXPECTED["gradflow_rk_sweep"]
        want = rec["errors"][str(self.seed)]
        problems = []
        if out["code"] != 0:
            problems.append(f"sweep exited with code {out['code']}")
        if len(out["rows"]) != len(want):
            return problems + [f"{len(out['rows'])} sweep rows, "
                               f"expected {len(want)}"]
        for row, err in zip(out["rows"], want):
            if row["stable"] != "1":
                problems.append(f"dt = {row['dt']}: unstable")
            elif not abs(float(row["error"]) - err) <= rec["rtol"] * err:
                problems.append(f"dt = {row['dt']}: error {row['error']} "
                                f"differs from recorded {err!r}")
        return problems


WORKLOADS = {"burgers_online": BurgersOnline,
             "burgers_bounds": BurgersBounds,
             "gradflow_rk_sweep": GradflowSweep}

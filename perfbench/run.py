"""morrow benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository; morrow is imported from
its ``src`` directory (nothing is installed).  Each run:

1. starts the workload worker, which sets up and runs timed passes of the
   workload for S seconds, checking the outputs of every pass.  Between
   passes it starts worker.SETUP_SAMPLES set-up-only workers and times
   each from process start to the end of its warm-up; the median is
   ``setup_s``;
2. prints a report line (stage times, the paper's cost ratios with their
   bases, failed share, thread settings) and, as the last line, the JSON
   result: end-to-end metrics with --trace 0, per-layer metrics with
   --trace 1.

All load runs in one process with BLAS pinned to one thread; the sweep
workload adds two sweep threads, which matches the two cores it was sized
on.  Exit code 0 when a result is printed; non-zero otherwise (for
instance when ``src/morrow`` is missing).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("burgers_online", "burgers_bounds", "gradflow_rk_sweep")
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# the whole run must end within 180 s
TIMEOUT_S = 170.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# (name, numerator, denominator): reported, not gated
RATIOS = (("rom_over_fom", "lspg_s", "fom_s"),
          ("gnat_over_lspg", "gnat_s", "lspg_s"),
          ("bound_over_rom", "bound_s", "lspg_s"))


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _start_worker(args, out, trace_file):
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--trace-file", trace_file]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)


def _finish(proc, deadline):
    """Wait for the worker; returns its JSON result."""
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else None


def _report(args, data):
    """Stage medians, ratios with their bases, failed share."""
    timed = [p for p in data["passes"] if not p["traced"]]
    stages = {}
    for name in sorted({k for p in timed for k in p["stages"]}):
        vals = [p["stages"][name] for p in timed if name in p["stages"]]
        stages[name] = {"value": _median(vals), "unit": "s"}
    ratios = {}
    for name, num, den in RATIOS:
        if num in stages and den in stages:
            value = stages[num]["value"] / stages[den]["value"]
            ratios[name] = {"value": value, "unit": "1", "numerator": num,
                            "denominator": den}
    attempted = sum(p["attempted"] for p in data["passes"])
    failed = sum(p["failed"] for p in data["passes"])
    return {
        "workload": args.workload, "seed": args.seed,
        "passes": len(data["passes"]), "traced_passes":
        len(data["passes"]) - len(timed),
        "wall_s": {"value": _median([p["wall_s"] for p in timed]),
                   "unit": "s", "samples": len(timed)},
        "setup_s": {"value": _median(data["setups"]), "unit": "s",
                    "samples": len(data["setups"])},
        "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        "stages": stages,
        "ratios_ungated": ratios,
        "failed_share": {"value": failed / attempted if attempted else 1.0,
                         "unit": "1", "failed": failed,
                         "attempted": attempted},
        "manifest_distinct": len(set(data["manifests"])),
        "threads": {"blas": BLAS_ENV["OPENBLAS_NUM_THREADS"],
                    "workload": data["threads"], "nproc": os.cpu_count()},
        "problems": data["problems"],
    }, attempted, failed


def _per_layer(data):
    traced = [p["layers"] for p in data["passes"] if "layers" in p]
    untraced = [p["wall_s"] for p in data["passes"] if not p["traced"]]
    metrics = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if not traced:  # every traced pass failed; correct is false
            value = 0.0
        elif name == "trace_overhead":
            value = (_median([t["trace.wall_s"] for t in traced])
                     / _median(untraced))
        elif name == "cli.manifest_distinct":
            value = len(set(data["manifests"]))
        else:
            value = _median([t[name] for t in traced])
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "morrow", "__init__.py")):
        return _fail(f"no morrow sources under {os.path.join(ROOT, 'src')}")

    deadline = time.monotonic() + TIMEOUT_S
    run_dir = os.path.join(HERE, "out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_file = os.path.join(HERE, "out",
                              f"trace-{args.workload}-{args.seed}.jsonl")
    os.makedirs(run_dir)
    try:
        data = _finish(_start_worker(args, os.path.join(run_dir, "w"),
                                     trace_file), deadline)
    except (RuntimeError, ValueError) as err:
        return _fail(str(err))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report, attempted, failed = _report(args, data)
    print(json.dumps({"report": report}))
    if args.trace:
        metrics = _per_layer(data)
    else:
        metrics = {m["name"]: report[m["name"]] for m in SPEC["end_to_end"]}
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in metrics.items()}
    print(json.dumps({"correct": not data["problems"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

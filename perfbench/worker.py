"""One workload process: set up, then run timed passes for a fixed time.

Started by run.py with BLAS pinned to one thread and morrow's ``src`` on
PYTHONPATH.  Prints ``READY <monotonic time>`` once set-up is done and, at
the end, one JSON line with every pass and the set-up times of
SETUP_SAMPLES set-up-only workers.  Those are started one after each
pass, while this process waits, so the set-up samples spread over the
run like the passes do: the host's speed drifts over seconds, and
samples taken back to back would all see the same moment of it.  With
--trace 1 the passes alternate untraced and traced, so the trace
overhead is measured on the same inputs; the spans of the traced passes
go to --trace-file.
"""

import argparse
import gc
import json
import resource
import subprocess
import sys
import time

import tracing
import workloads


# a traced pass must spend at most this share of its time outside every
# traced morrow call, so a renamed or new entry point that escapes the
# recorder shows up as a failed check
MAX_UNTRACED_SHARE = 0.02

# set-up samples per run; setup_s is their median
SETUP_SAMPLES = 5


def setup_sample(args, i):
    """Set-up time of a fresh set-up-only worker on the same inputs, from
    process start to the end of its warm-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", f"{args.out}.setup{i}", "--setup-only"]
    started = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=60, check=True)
    ready = done.stdout.split("READY ", 1)[1].split()[0]
    return float(ready) - started


def traced_layers(rec, root, res, threads):
    tree = tracing.SpanTree(rec.spans, root.sid)
    layers = tracing.layer_metrics(tree, threads)
    layers["cli.sweep_points"] = res.outputs.get("points", 0)
    layers["cli.write_bytes"] = res.outputs.get("write_bytes", 0)
    return layers


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    wl.setup()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    rec = tracing.Recorder()
    threads = getattr(wl, "threads", 1)
    passes, problems, span_log, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        res = workloads.PassResult()
        gc.collect()
        if traced:
            rec.spans = []
            rec.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with rec.span("bench.pass") as root:
                    wl.run(res)
            else:
                wl.run(res)
        except Exception as err:  # a failed pass is reported, not fatal
            problems.append(f"pass {len(passes)}: {type(err).__name__}: {err}")
            res.outputs = {}
        finally:
            wall = time.perf_counter() - t0
            if traced:
                rec.uninstall()
        record = {"traced": traced, "wall_s": wall, "stages": res.stages,
                  "attempted": res.attempted, "failed": res.failed}
        if res.outputs:
            problems += [f"pass {len(passes)}: {p}"
                         for p in wl.check(res.outputs)]
            if traced:
                record["layers"] = traced_layers(rec, root, res, threads)
                share = record["layers"]["trace.untraced_share"]
                if not share <= MAX_UNTRACED_SHARE:
                    problems.append(f"pass {len(passes)}: {share:.1%} of the "
                                    "traced pass is outside morrow calls")
                span_log.append(rec.spans)
        passes.append(record)
        if len(setups) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            setups.append(setup_sample(args, len(setups)))
            start += time.perf_counter() - t0  # not part of the passes' time

        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes[-2:])
        if len(passes) >= 1 + args.trace and elapsed + longest > args.seconds:
            break

    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args, len(setups)))
    if args.trace_file and span_log:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            for i, spans in enumerate(span_log):
                for s in spans:
                    fh.write(json.dumps({"pass": i, "span": list(s)}) + "\n")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "passes": passes,
        "setups": setups,
        "problems": problems,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "manifests": getattr(wl, "manifests", []),
        "threads": threads,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

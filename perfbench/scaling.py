"""One-off scaling report: the burgers_online stages as a function of N.

    python3 perfbench/scaling.py

Runs the burgers_online pipeline (backward Euler, dt = 2e-3, 50 steps,
POD nu = 0.9999, GNAT nu_r = 0.9999 with 2q samples) REPEATS times at
each N in SIZES, after a warm-up, with BLAS pinned to one thread, and
writes the median stage times with p and n_s to perfbench/scaling.json.  Not gated;
N = 4096 is left out because the dense full-order model takes minutes
there.
"""

import json
import os
import platform
import statistics
import sys

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SIZES = (256, 512, 1024, 2048)
SEED = 0
REPEATS = 3


def main():
    wl = workloads.BurgersOnline(SEED, None)
    wl.setup()
    rows = []
    for n in SIZES:
        runs = []
        for _ in range(REPEATS):
            res = workloads.PassResult()
            wl.pipeline(n, wl.steps, res)
            runs.append(res)
        out = res.outputs
        row = {"N": n, "p": out["basis"].p, "n_s": out["samples"],
               "problems": wl.check(out),
               **{k: round(statistics.median(r.stages[k] for r in runs), 4)
                  for k in res.stages}}
        row["rom_over_fom"] = round(row["lspg_s"] / row["fom_s"], 3)
        row["gnat_over_lspg"] = round(row["gnat_s"] / row["lspg_s"], 3)
        rows.append(row)
        print(json.dumps(row), flush=True)
    report = {
        "what": f"burgers_online stages, median of {REPEATS} passes "
                f"per N, seed {SEED}; times in seconds",
        "machine": {"nproc": os.cpu_count(), "blas_threads": 1,
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "rows": rows,
    }
    with open(os.path.join(HERE, "scaling.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

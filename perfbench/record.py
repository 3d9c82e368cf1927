"""Record the gradflow_rk_sweep reference errors in expected.json.

    python3 perfbench/record.py

For each recorded instance (CLI seed 0 .. workloads.INSTANCES - 1) this
runs the benchmark's own sweep with one sweep thread instead of two, so
the reference comes from the serial path and the benchmark's two-thread
runs are checked against it.  Run from the root of a checkout; BLAS is
pinned to one thread.
"""

import json
import os
import sys
import tempfile

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    path = os.path.join(HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    errors = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        wl = workloads.GradflowSweep(0, tmp)
        wl.threads = 1
        wl.setup()
        for seed in range(workloads.INSTANCES):
            out = os.path.join(tmp, str(seed))
            code = wl.sweep(wl.config, out, seed)
            rows = workloads.read_sweep(os.path.join(out, "sweep_notime.csv"))
            if code != 0 or any(r["stable"] != "1" for r in rows):
                raise SystemExit(f"instance {seed}: sweep failed")
            errors[str(seed)] = [float(r["error"]) for r in rows]
            print(seed, errors[str(seed)], flush=True)
    expected["gradflow_rk_sweep"]["errors"] = errors
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

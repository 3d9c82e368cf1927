"""Smoke test: every script in demos/ runs to completion against the
current API."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    # demos may write artifacts to their working directory
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT,
                                                                   "src")))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

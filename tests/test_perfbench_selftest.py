"""The benchmark's negative controls run here too: a program change that a
benchmark check can no longer read or judge (say, a checkpoint ``load``
that fails on a file ``save`` wrote) fails Tier-1, not only a benchmark
run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selftest_controls_all_behave():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr

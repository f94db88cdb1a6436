"""The benchmark's self-test (``perfbench/selftest.py``) as part of the test
suite: a change that breaks a benchmark workload or its output checks fails
here, not first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # selftest.py runs from the root of the checkout and writes only under
    # .perfbench-work/
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]

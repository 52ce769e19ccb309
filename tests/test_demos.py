"""Every demo runs to completion against the package in src/."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, demo):
    # TMPDIR keeps the files a demo writes inside this test's directory
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, demo], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr

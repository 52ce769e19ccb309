"""Every demo, and the README's library example, runs to completion
against the package in src/."""

import glob
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import synth_fleet_csv

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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = Path(ROOT, "README.md").read_text(encoding="utf-8")
    (code,) = [block.split("```")[0] for block in readme.split("```python\n")[1:]]
    # the example reads sessions.csv from the working directory; its first
    # charger has sessions to learn from and sessions to charge after them
    (tmp_path / "sessions.csv").write_text(
        synth_fleet_csv(n_cps=2, sessions_per_cp=100, seed=5, zero_energy_prob=0.2)
    )
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["window"]) == 30 and (namespace["window"].energy_kwh > 0).all()
    assert len(namespace["outcome"].e_loss_kwh) == 20

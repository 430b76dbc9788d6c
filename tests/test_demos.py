"""The fast demos run as scripts against the package in ``src``."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# 03 and 04 simulate for several seconds each and stay out of this suite
FAST_DEMOS = ["01_pulses_and_gamma.py", "02_closed_form_curves.py", "05_experiment_sweeps.py", "06_rake_finger_tradeoff.py"]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(tmp_path, name):
    # a copy, so a demo that writes under its own out/ writes under tmp_path
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

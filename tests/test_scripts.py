"""Smoke runs of the scripts in ``scripts/`` at tiny sizes."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# group orders of the survey's euclidean, p3, hexagonal, square, diamond and
# lens spheres; at 64 samples the hexagon's offsets are fractional
SURVEY_ORDERS = ["continuous", 8, 12, 8, 8, 4]


@pytest.mark.parametrize("script, args, out", [
    ("modulus_sweep.py", ["--steps", "2", "--resolution", "64", "--out", "m.csv"], "m.csv"),
    ("symmetry_survey.py", ["--samples", "64", "--out", "s.json"], "s.json"),
    ("corner_ratio_profile.py", ["--points", "3", "--out", "c.csv"], "c.csv"),
])
def test_script_runs_at_tiny_size(tmp_path, script, args, out):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert (tmp_path / out).read_text().strip()
    if script == "symmetry_survey.py":
        groups = json.loads((tmp_path / out).read_text())["groups"]
        orders = ["continuous" if g["continuous"] else g["order"] for g in groups]
        assert orders == SURVEY_ORDERS


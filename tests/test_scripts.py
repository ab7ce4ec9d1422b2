"""The scripts run to completion: both reproduction scripts, whose figure
tables match their pins, and the exact check of the planner's hypot."""

import hashlib
import os
import subprocess
import sys

from test_output_bytes import SWEEP_GAMMA_SHA256, SWEEP_SPEED_SHA256, SWEEP_SURFACE_SHA256

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP_BATTERY_SHA256 = "61b76ffa243c580fd8163b2ccf411da964e6c502dfd77bfe597a87628f3ce7bf"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_matching_experiments_script(tmp_path):
    r = run_script("run_matching_experiments.py", "--trials", "1", "--outdir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    for case in (1, 2):
        header = (tmp_path / f"experiment_case{case}.csv").read_text().splitlines()[0]
        assert header.startswith("uav_count,n_trials,")


def test_figure_sweeps_script(tmp_path):
    r = run_script("run_figure_sweeps.py", "--outdir", str(tmp_path))
    assert r.returncode == 0, r.stderr
    # The speed, gamma and surface tables are sweep_curves' defaults, as
    # pinned for ``uavhitch sweep``; the battery table has its own pin.
    expected = {
        "speed": SWEEP_SPEED_SHA256,
        "gamma": SWEEP_GAMMA_SHA256,
        "surface": SWEEP_SURFACE_SHA256,
        "battery": SWEEP_BATTERY_SHA256,
    }
    for kind, sha256 in expected.items():
        table = (tmp_path / f"sweep_{kind}.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == sha256, kind


def test_check_hypot_script():
    r = run_script("check_hypot.py", "--n", "20000")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 7 and all(line.endswith(" 0 misrounded") for line in lines), r.stdout

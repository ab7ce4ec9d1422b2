"""The scripts run to completion: both reproduction scripts, whose figure
tables match their pins, and the exact check of the planner's hypot. The
benchmark-pair script's summary is checked on canned numbers; no benchmark
runs here."""

import hashlib
import importlib.util
import os
import subprocess
import sys

import pytest

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


def load_script(name):
    path = os.path.join(ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = load_script("ab_pairs")

# Ten alternating pairs of fleet_cap ops_per_s, parent and change.
PARENT_OPS = [68.68, 71.35, 67.94, 68.69, 71.04, 69.45, 70.54, 67.19, 68.95, 68.77]
CHANGE_OPS = [76.34, 79.55, 76.68, 77.41, 76.60, 77.93, 78.56, 74.21, 76.70, 82.05]


def test_ab_pairs_summary_of_a_clear_gain():
    s = ab_pairs.summarize(PARENT_OPS, CHANGE_OPS, "higher", 0.2)
    assert s["change_wins"] == 10 and s["pairs"] == 10
    # Inclusive quartiles: q1 sits a quarter of the way from the 3rd to the 4th value.
    assert s["parent_q1_median_q3"] == pytest.approx([68.6825, 68.86, 70.2675])
    assert s["change_q1_median_q3"] == pytest.approx([76.62, 77.055, 78.4025])
    assert s["median_change_frac"] == pytest.approx(77.055 / 68.86 - 1)
    assert s["within_bound"] and s["claim_met"]


def test_ab_pairs_summary_reads_lower_as_better():
    parent = [1e3 / v for v in PARENT_OPS]
    change = [1e3 / v for v in CHANGE_OPS]
    s = ab_pairs.summarize(parent, change, "lower", 0.2)
    assert s["change_wins"] == 10 and s["median_change_frac"] < 0
    assert s["within_bound"] and s["claim_met"]
    # The same runs with the sides swapped are 10 losses, and a loss of
    # about 12% is outside a 10% bound.
    s = ab_pairs.summarize(change, parent, "lower", 0.1)
    assert s["change_wins"] == 0 and not s["within_bound"] and not s["claim_met"]


def test_ab_pairs_claim_needs_nine_wins_and_a_gap_past_the_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # Every pair won by a little: the medians differ by 0.5, the parent's IQR is 4.5.
    s = ab_pairs.summarize(parent, [p + 0.5 for p in parent], "higher", 0.2)
    assert s["change_wins"] == 10 and s["within_bound"] and not s["claim_met"]
    # A large gap but only 8 wins.
    change = [p + 10.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    s = ab_pairs.summarize(parent, change, "higher", 0.2)
    assert s["change_wins"] == 8 and not s["claim_met"]
    # Ties are not wins: ok_frac at 1.0 on both sides.
    s = ab_pairs.summarize([1.0] * 10, [1.0] * 10, "higher", 0.01)
    assert s["change_wins"] == 0 and s["median_change_frac"] == 0.0 and s["within_bound"]


def test_ab_pairs_summarize_all_reads_benchmark_bounds():
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
                  {"name": "op_ms_p50", "better": "lower", "bound": 0.2}]
    pairs = {"fleet_cap": {"metrics": {
        "ops_per_s": {"parent": PARENT_OPS, "change": CHANGE_OPS},
        "op_ms_p50": {"parent": [], "change": []},
    }}}
    out = ab_pairs.summarize_all(pairs, end_to_end)
    assert list(out) == ["fleet_cap.ops_per_s"]
    assert out["fleet_cap.ops_per_s"]["bound"] == 0.2


def test_ab_pairs_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0], "higher", 0.2)

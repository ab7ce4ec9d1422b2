"""Output bytes pinned by sha256.

Same-seed runs must produce byte-identical results, and refactors of the
planner or the experiment loop must not move a single bit. The digests
below were taken from the reference implementation; a change that alters
them changes results and has to say why.

The match scenario is built here from a seeded ``random.Random`` so that it
covers every planning branch: deadlines, finite batteries (including a full
one), ride-only, charging, strongly charging (threshold angle pi) and
battery-swap (gamma = inf) vehicles, and a vehicle of capacity 2.
"""

import hashlib
import json
import math
import random

from uavhitch import UnboundedHitchError, plan_pair
from uavhitch.cli import main
from uavhitch.scenario_io import load_scenario

SIMULATE_CSV_SHA256 = "f4fd843aefb346286d2f4fcd37db8fc68d3bbb64c2ea8c0458477dfb42420355"
MATCH_JSON_SHA256 = "c97cc5c1d99d533406ad14a45138798acc10740990a39495b76181606bda1e97"
PLAN_MATRIX_SHA256 = "1c84fe9e29d5e5e398d9fb5703076413abdd2a704b14e3235e60b1f2186b4414"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_mixed_scenario(path) -> None:
    rng = random.Random(20211021)
    uavs = []
    for i in range(7):
        x = rng.uniform(1.0, 20.0)
        deadline = "inf" if i % 3 == 0 else (x / 60.0) * rng.uniform(1.0, 2.5)
        capacity = rng.uniform(0.05, 0.5)
        level = capacity if i == 4 else capacity * rng.uniform(0.0, 0.9)
        uavs.append(
            {"x": x, "u": 60.0, "deadline": deadline,
             "battery_capacity": capacity, "battery_level": level}
        )
    vehicles = [
        {"v": rng.uniform(20.0, 70.0), "gamma": gamma, "capacity": capacity}
        for gamma, capacity in [(0.0, 1), (0.3, 2), (0.6, 1), ("inf", 1), (5.0, 1), (0.0, 1)]
    ]
    theta = [rng.uniform(0.0, math.pi) for _ in range(len(uavs) * len(vehicles))]
    scenario = {
        "config": {"omega": 0.8, "tol": 1e-9},
        "uavs": uavs,
        "vehicles": vehicles,
        "theta": theta,
        "seed": 20211021,
        "label": "mixed",
    }
    path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")


def test_simulate_csv_bytes_pinned(tmp_path):
    out = tmp_path / "case1.csv"
    assert main([
        "simulate", "--case", "1", "--uavs", "5,10", "--vehicles", "10",
        "--trials", "3", "--seed", "7", "--output", str(out),
    ]) == 0
    assert sha256(out.read_bytes()) == SIMULATE_CSV_SHA256


def test_match_limited_json_bytes_pinned(tmp_path):
    scenario = tmp_path / "mixed.json"
    write_mixed_scenario(scenario)
    out = tmp_path / "match.json"
    assert main([
        "match", str(scenario), "--limited", "--format", "json", "--output", str(out),
    ]) == 0
    assert sha256(out.read_bytes()) == MATCH_JSON_SHA256


def test_every_plan_field_pinned(tmp_path):
    # The match JSON shows matched pairs only and omits swap_and_depart;
    # this pins every field of every pair's plan under both battery models,
    # and which pairs have no finite optimum without the battery cap.
    path = tmp_path / "mixed.json"
    write_mixed_scenario(path)
    s = load_scenario(str(path))
    lines = []
    for limited in (False, True):
        for task, row in zip(s.tasks, s.geoms):
            for offer, geom in zip(s.offers, row):
                try:
                    lines.append(repr(plan_pair(s.config, task, offer, geom, limited)))
                except UnboundedHitchError:
                    lines.append("unbounded")
    assert sha256("\n".join(lines).encode()) == PLAN_MATRIX_SHA256

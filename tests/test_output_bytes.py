"""Output bytes pinned by sha256.

Same-seed runs must produce byte-identical results, and refactors of the
planner or the experiment loop must not move a single bit. The digests
below were taken from the reference implementation; a change that alters
them changes results and has to say why.

The match scenario is built here from a seeded ``random.Random`` so that it
covers every planning branch: deadlines, finite batteries (including a full
one), ride-only, charging, strongly charging (threshold angle pi) and
battery-swap (gamma = inf) vehicles, and a vehicle of capacity 2. The
greedy and exhaustive solvers are pinned on it too, and the max-saving
solver also on a generated scenario of five vehicles of capacity 3 that
sixteen UAVs compete for.
"""

import hashlib
import json
import math
import random

import pytest

from uavhitch import GeneratorParams, UnboundedHitchError, generate_scenario, plan_pair
from uavhitch.cli import main
from uavhitch.scenario_io import load_scenario, save_scenario

SIMULATE_CSV_SHA256 = "f4fd843aefb346286d2f4fcd37db8fc68d3bbb64c2ea8c0458477dfb42420355"
MATCH_JSON_SHA256 = "c97cc5c1d99d533406ad14a45138798acc10740990a39495b76181606bda1e97"
MATCH_GREEDY_JSON_SHA256 = "a21d4ef3411b595502f0416560ea865f688f584f46e4e80d1fd98f37072cca8e"
MATCH_BRUTE_JSON_SHA256 = "d9e8d21e1f9db85559ca960fb7f982164e215d837d8ccc0dbdb90156d31fc509"
MATCH_CAPACITY_JSON_SHA256 = "bbc8ce5b748983f63b3d012387d916a8ea91720be48eac917f9dd49bbb28895b"
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


def write_capacity_scenario(path) -> None:
    params = GeneratorParams(
        n_uavs=16, n_vehicles=5, capacity=3,
        v_range=(20.0, 70.0), gamma_range=(0.0, 0.5), label="capacity",
    )
    save_scenario(generate_scenario(params, 20211021), str(path))


def test_simulate_csv_bytes_pinned(tmp_path):
    out = tmp_path / "case1.csv"
    assert main([
        "simulate", "--case", "1", "--uavs", "5,10", "--vehicles", "10",
        "--trials", "3", "--seed", "7", "--output", str(out),
    ]) == 0
    assert sha256(out.read_bytes()) == SIMULATE_CSV_SHA256


@pytest.mark.parametrize(
    "write_scenario, options, digest",
    [
        (write_mixed_scenario, ["--limited"], MATCH_JSON_SHA256),
        (write_mixed_scenario, ["--limited", "--solver", "greedy"], MATCH_GREEDY_JSON_SHA256),
        (write_mixed_scenario, ["--limited", "--solver", "brute"], MATCH_BRUTE_JSON_SHA256),
        (write_capacity_scenario, [], MATCH_CAPACITY_JSON_SHA256),
    ],
    ids=["limited", "greedy", "brute", "capacity"],
)
def test_match_json_bytes_pinned(tmp_path, write_scenario, options, digest):
    scenario = tmp_path / "scenario.json"
    write_scenario(scenario)
    out = tmp_path / "match.json"
    assert main(["match", str(scenario), *options, "--format", "json", "--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


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

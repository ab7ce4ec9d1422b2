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

A second, boundary scenario pins every plan field where rounding decides
the branch: angles a few ``tol`` below the charging and the ride-only
threshold angle, full batteries, swap vehicles, threshold angle pi with
and without a deadline, and deadlines barely above the direct time.
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
PLAN_BOUNDARY_SHA256 = "c9f657367c9bee4bd62e21f7b3ff3608da3d6e5e6f8375bd47f331b9f82349de"


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


def write_boundary_scenario(path) -> None:
    omega, tol, u = 0.8, 1e-9, 60.0
    # (v, gamma): ride-only, two charging vehicles with threshold angles
    # inside (0, pi), two that help at any angle (phi = pi), one swap.
    vehicles = [(50.0, 0.0), (40.0, 0.3), (30.0, 0.1), (40.0, 2.0), (45.0, "inf"), (35.0, 5.0)]

    def threshold(v: float, gamma) -> float:
        rate = 0.0 if gamma == "inf" else omega * gamma  # swap: ride-only angle
        return math.acos(max(-1.0, min(1.0, (1.0 - omega - rate) * u / v)))

    rng = random.Random(20211022)
    uavs, theta = [], []
    for k in (0.5, 1.0, 2.0, 10.0):
        for ride_only in (False, True):
            for battery in ("inf", "partial", "full"):
                for bounded in (False, True):
                    x = rng.uniform(1.0, 20.0)
                    deadline = (x / u) * rng.uniform(1.0, 1.3) if bounded else "inf"
                    capacity = "inf" if battery == "inf" else rng.uniform(0.01, 0.3)
                    level = capacity if battery == "full" else 0.0
                    if battery == "partial":
                        level = capacity * rng.uniform(0.0, 0.9)
                    uavs.append({"x": x, "u": u, "deadline": deadline,
                                 "battery_capacity": capacity, "battery_level": level})
                    theta.append([
                        threshold(v, 0.0 if ride_only else gamma) - k * tol
                        for v, gamma in vehicles
                    ])
    scenario = {
        "config": {"omega": omega, "tol": tol},
        "uavs": uavs,
        "vehicles": [{"v": v, "gamma": gamma, "capacity": 1} for v, gamma in vehicles],
        "theta": theta,
        "seed": 20211022,
        "label": "boundary",
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


def plan_matrix_digest(tmp_path, write_scenario) -> str:
    # The match JSON shows matched pairs only and omits swap_and_depart;
    # this pins every field of every pair's plan under both battery models,
    # and which pairs have no finite optimum without the battery cap.
    path = tmp_path / "scenario.json"
    write_scenario(path)
    s = load_scenario(str(path))
    lines = []
    for limited in (False, True):
        for task, row in zip(s.tasks, s.geoms):
            for offer, geom in zip(s.offers, row):
                try:
                    lines.append(repr(plan_pair(s.config, task, offer, geom, limited)))
                except UnboundedHitchError:
                    lines.append("unbounded")
    return sha256("\n".join(lines).encode())


def test_every_plan_field_pinned(tmp_path):
    assert plan_matrix_digest(tmp_path, write_mixed_scenario) == PLAN_MATRIX_SHA256


def test_every_plan_field_pinned_at_boundaries(tmp_path):
    assert plan_matrix_digest(tmp_path, write_boundary_scenario) == PLAN_BOUNDARY_SHA256

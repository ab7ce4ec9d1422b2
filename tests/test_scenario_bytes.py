"""Scenario files pinned by sha256.

``dump_scenario`` must give the same bytes however a scenario is held in
memory. The digests below pin generated scenarios (case 1; case 2 with
per-vehicle speed and charging ranges, deadlines and capacity 3; no
vehicles; no UAVs), a hand-written file with nested ``theta``, integer and
negative-zero angles and ``"inf"`` fields after a load and a dump, and every
file a ``simulate --emit-scenarios`` run writes.
"""

import hashlib
import json

import pytest

from uavhitch import GeneratorParams, VehicleOffer, case_theta_range, generate_scenario
from uavhitch.cli import main
from uavhitch.scenario_io import dump_scenario, load_scenario

CASE1_SHA256 = "ad4f8d69bd57587105d0fe9ec169732adaf6ae507d56d34b95460f6fc8422b21"
RANGES_SHA256 = "057d6afe1233ed928da1bb45f3f26981c16f1be9c18227a03a8896baae3e894c"
NO_VEHICLES_SHA256 = "a1aaeed07953012883dd065ea36ad03e28df183b6c6e425b75a92e4caf9fc610"
NO_UAVS_SHA256 = "64d4910a3b4ea3a95d0f0accbf289f9ce189f0441d58e9fb783e4008084434a1"
LOADED_NESTED_SHA256 = "8253e4d1b16982cfd87073e3bb401d8b762c9cc3b3cced6d7d98a1d1d71e0652"
EMITTED_FILES_SHA256 = "50b1b67849d48c28affda749ddb49836c8402c8e50b8345ee5e3bb09d3e3f217"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GENERATED = {
    "case1": (GeneratorParams(n_uavs=6, n_vehicles=5, theta_range=case_theta_range(1)), 2021),
    "ranges": (
        GeneratorParams(
            n_uavs=5, n_vehicles=4, theta_range=case_theta_range(2),
            v_range=(20.0, 70.0), gamma_range=(0.0, 0.5), deadline_factor=1.5,
            capacity=3, label="ranges",
        ),
        2022,
    ),
    "no_vehicles": (GeneratorParams(n_uavs=3, n_vehicles=0), 2023),
    "no_uavs": (GeneratorParams(n_uavs=0, n_vehicles=4), 2024),
}


@pytest.mark.parametrize(
    "name, digest",
    [
        ("case1", CASE1_SHA256),
        ("ranges", RANGES_SHA256),
        ("no_vehicles", NO_VEHICLES_SHA256),
        ("no_uavs", NO_UAVS_SHA256),
    ],
)
def test_generated_scenario_bytes_pinned(name, digest):
    params, seed = GENERATED[name]
    assert sha256(dump_scenario(generate_scenario(params, seed)).encode()) == digest


def test_loaded_nested_scenario_bytes_pinned(tmp_path):
    scenario = {
        "config": {"omega": 0.7, "tol": 1e-9},
        "uavs": [
            {"x": 5.0, "u": 60.0},
            {"x": 12.5, "u": 45.0, "deadline": "inf", "battery_capacity": 0.4,
             "battery_level": 0.1},
            {"x": 3, "u": 60, "deadline": 0.2, "battery_capacity": "inf"},
        ],
        "vehicles": [
            {"v": 40.0, "gamma": 0.3},
            {"v": 35, "gamma": "inf", "capacity": 2},
        ],
        "theta": [[0.1, 3.141592653589793], [0, -0.0], [1, 2.5]],
        "seed": 5,
        "label": "nested",
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert sha256(dump_scenario(load_scenario(str(path))).encode()) == LOADED_NESTED_SHA256


def test_emitted_scenario_files_pinned(tmp_path):
    out, scen_dir = tmp_path / "sim.csv", tmp_path / "scen"
    assert main([
        "simulate", "--case", "2", "--uavs", "4,8", "--vehicles", "10", "--trials", "5",
        "--seed", "99", "--output", str(out), "--emit-scenarios", str(scen_dir),
    ]) == 0
    files = [out, *sorted(scen_dir.iterdir())]
    assert len(files) == 11
    manifest = "".join(f"{f.name} {sha256(f.read_bytes())}\n" for f in files)
    assert sha256(manifest.encode()) == EMITTED_FILES_SHA256


def test_emit_scenarios_draws_each_scenario_once(tmp_path, monkeypatch):
    import uavhitch.cli
    import uavhitch.simlab

    calls = []

    def counting(params, seed):
        calls.append((params.n_uavs, seed))
        return generate_scenario(params, seed)

    monkeypatch.setattr(uavhitch.simlab, "generate_scenario", counting)
    monkeypatch.setattr(uavhitch.cli, "generate_scenario", counting, raising=False)
    assert main([
        "simulate", "--case", "2", "--uavs", "4,8", "--vehicles", "10", "--trials", "5",
        "--seed", "99", "--output", str(tmp_path / "sim.csv"),
        "--emit-scenarios", str(tmp_path / "scen"),
    ]) == 0
    assert len(calls) == 10 and len(set(calls)) == 10
    assert len(list((tmp_path / "scen").iterdir())) == 10


@pytest.mark.parametrize("capacity", [1, 3])
def test_integer_speed_and_rate_give_float_offers(capacity):
    # Homogeneous vehicles share one offer made from the params' v and
    # gamma: an integer one must still be written as a float ("v": 40.0).
    as_int = GeneratorParams(n_uavs=3, n_vehicles=4, v=40, gamma=0, capacity=capacity)
    as_float = GeneratorParams(n_uavs=3, n_vehicles=4, v=40.0, gamma=0.0, capacity=capacity)
    s = generate_scenario(as_int, 2025)
    assert dump_scenario(s) == dump_scenario(generate_scenario(as_float, 2025))
    expected = VehicleOffer(v=40.0, gamma=0.0, capacity=capacity)
    assert [repr(o) for o in s.offers] == [repr(expected)] * 4

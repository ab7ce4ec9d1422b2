import json
import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from uavhitch import GeneratorParams, UavTask, VehicleOffer, case_theta_range, generate_scenario
from uavhitch import scenario_io
from uavhitch.scenario_io import (
    csv_text,
    dump_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


@pytest.fixture
def scenario():
    p = GeneratorParams(n_uavs=3, n_vehicles=4, theta_range=case_theta_range(1), label="t")
    return generate_scenario(p, 99)


def test_round_trip(scenario):
    assert dump_scenario(scenario_from_dict(scenario_to_dict(scenario))) == dump_scenario(scenario)


def test_file_round_trip(tmp_path, scenario):
    path = str(tmp_path / "s.json")
    save_scenario(scenario, path)
    assert dump_scenario(load_scenario(path)) == dump_scenario(scenario)


def test_dump_is_valid_json_with_inf_strings(scenario):
    data = json.loads(dump_scenario(scenario))
    assert data["uavs"][0]["deadline"] == "inf"
    assert data["uavs"][0]["battery_capacity"] == "inf"
    assert len(data["theta"]) == 12  # flat, row-major


def test_infinite_gamma_round_trips(scenario):
    d = scenario_to_dict(scenario)
    d["vehicles"][0]["gamma"] = "inf"
    s = scenario_from_dict(d)
    assert math.isinf(s.offers[0].gamma)
    assert scenario_to_dict(s)["vehicles"][0]["gamma"] == "inf"


def test_nested_theta_accepted(scenario):
    d = scenario_to_dict(scenario)
    flat = d["theta"]
    d["theta"] = [flat[i * 4 : (i + 1) * 4] for i in range(3)]
    assert dump_scenario(scenario_from_dict(d)) == dump_scenario(scenario)


def test_mixed_theta_loads_as_the_per_entry_path(scenario, monkeypatch):
    d = scenario_to_dict(scenario)
    # "inf" strings and ints among the floats
    d["theta"][1], d["theta"][2], d["theta"][6], d["theta"][9] = "inf", 0, "inf", 3
    with pytest.raises(ValueError, match=r"^theta\[0,1\]: theta must be in \[0, pi\], got inf$"):
        scenario_from_dict(d)
    per_entry = np.array([math.inf if t == "inf" else t for t in d["theta"]], dtype=np.float64)
    monkeypatch.setattr(scenario_io, "Scenario", lambda **kw: kw)  # skips the range check
    geoms = scenario_from_dict(d)["geoms"]
    assert geoms.dtype == np.float64
    assert geoms.tobytes() == per_entry.reshape(3, 4).tobytes()


class PassCountingList(list):
    """A list that counts the passes made over it by iteration."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_all_number_theta_is_scanned_once(scenario, monkeypatch):
    monkeypatch.setattr(scenario_io, "Scenario", lambda **kw: kw)
    d = scenario_to_dict(scenario)
    numpy_passes = PassCountingList(d["theta"])
    np.array(numpy_passes, dtype=np.float64)

    def passes(theta) -> int:
        counted = PassCountingList(theta)
        scenario_from_dict({**d, "theta": counted})
        return counted.passes

    ints = [0 if k % 2 else t for k, t in enumerate(d["theta"])]
    # One type scan, then numpy converts the list itself: no "inf" rewrite
    # makes a copy of it.
    assert passes(d["theta"]) == passes(ints) == numpy_passes.passes + 1


def test_theta_length_mismatch_rejected(scenario):
    d = scenario_to_dict(scenario)
    d["theta"] = d["theta"][:-1]
    with pytest.raises(ValueError, match="theta"):
        scenario_from_dict(d)


def test_missing_key_rejected(scenario):
    d = scenario_to_dict(scenario)
    del d["config"]
    with pytest.raises(ValueError, match="config"):
        scenario_from_dict(d)


def test_invalid_numbers_rejected(scenario):
    d = scenario_to_dict(scenario)
    d["uavs"][0]["x"] = "five"
    with pytest.raises(ValueError, match="x"):
        scenario_from_dict(d)


def test_invariant_violations_rejected(scenario):
    d = scenario_to_dict(scenario)
    d["uavs"][0]["x"] = -2.0
    with pytest.raises(ValueError, match="positive"):
        scenario_from_dict(d)
    d = scenario_to_dict(scenario)
    d["uavs"][0]["deadline"] = 1e-6  # below the direct flight time
    with pytest.raises(ValueError, match="deadline"):
        scenario_from_dict(d)


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_scenario(str(path))


def test_csv_text_deterministic_floats():
    text = csv_text(["a", "b"], [[1, 0.1 + 0.2], [2, 1.0 / 3.0]])
    assert text == "a,b\n1,0.30000000000000004\n2,0.3333333333333333\n"


@pytest.mark.parametrize(
    "where, message",
    [
        (lambda d: d, "scenario: unknown keys ['sead']"),
        (lambda d: d["config"], "config: unknown keys ['sead']"),
        (lambda d: d["uavs"][1], "uavs[1]: unknown keys ['sead']"),
        (lambda d: d["vehicles"][2], "vehicles[2]: unknown keys ['sead']"),
    ],
    ids=["top", "config", "uav", "vehicle"],
)
def test_unknown_key_rejected_by_name(scenario, where, message):
    d = scenario_to_dict(scenario)
    where(d)["sead"] = 1
    with pytest.raises(ValueError) as info:
        scenario_from_dict(d)
    assert str(info.value) == message


def test_every_entry_field_round_trips(scenario):
    # Every UavTask and VehicleOffer field away from its default.
    task = UavTask(x=5.0, u=60.0, deadline=0.25, battery_capacity=0.4, battery_level=0.1)
    offer = VehicleOffer(v=40.0, gamma=math.inf, capacity=3)
    for f in fields(UavTask):
        assert f.default is MISSING or getattr(task, f.name) != f.default, f.name
    for f in fields(VehicleOffer):
        assert f.default is MISSING or getattr(offer, f.name) != f.default, f.name
    s = replace(scenario, tasks=[task] * 3, offers=[offer] * 4)
    d = scenario_to_dict(s)
    assert d["uavs"][0] == {"x": 5.0, "u": 60.0, "deadline": 0.25,
                            "battery_capacity": 0.4, "battery_level": 0.1}
    assert d["vehicles"][0] == {"v": 40.0, "gamma": "inf", "capacity": 3}
    loaded = scenario_from_dict(json.loads(dump_scenario(s)))
    assert loaded.tasks == s.tasks and loaded.offers == s.offers
    assert dump_scenario(loaded) == dump_scenario(s)


def test_omitted_entry_fields_take_the_model_defaults(scenario):
    d = scenario_to_dict(scenario)
    d["uavs"] = [{"x": 5.0, "u": 60.0} for _ in range(3)]
    d["vehicles"] = [{"v": 40.0} for _ in range(4)]
    s = scenario_from_dict(d)
    assert s.tasks == [UavTask(5.0, 60.0)] * 3
    assert s.offers == [VehicleOffer(40.0)] * 4
    del d["uavs"][0]["u"]
    with pytest.raises(ValueError, match=r"uavs\[0\]: missing key 'u'"):
        scenario_from_dict(d)

import json
import math

import pytest

from uavhitch import GeneratorParams, case_theta_range, generate_scenario
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

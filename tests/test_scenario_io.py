import json
import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
    # numpy 2 writes a numpy float's repr as np.float64(0.5).
    assert csv_text(["a"], [[np.float64(0.5)]]) == "a\n0.5\n"


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


# The orjson fast path of ``load_scenario`` against ``json`` alone.


def scenario_repr(s) -> str:
    """Every field but ``geoms``; repr tells an int from a float and 0.0
    from -0.0."""
    return repr((s.tasks, s.offers, s.config, s.seed, s.label))


def assert_loads_as_json(path) -> None:
    """``load_scenario(path)`` gives what ``oracles.json_load_scenario``
    gives: an equal scenario with bit-equal ``geoms``, or an error of the
    same type and message; ``json``'s ``UnicodeDecodeError`` comes back as
    a ``ValueError`` naming the file."""
    path = str(path)
    try:
        want = oracles.json_load_scenario(path)
    except UnicodeDecodeError as exc:
        want_error = (ValueError, f"{path}: not valid UTF-8 ({exc})")
    except (ValueError, RecursionError) as exc:
        want_error = (type(exc), str(exc))
    else:
        got = load_scenario(path)
        assert scenario_repr(got) == scenario_repr(want)
        assert (got.geoms.dtype, got.geoms.shape) == (want.geoms.dtype, want.geoms.shape)
        assert got.geoms.tobytes() == want.geoms.tobytes()
        return
    with pytest.raises((ValueError, RecursionError)) as info:
        load_scenario(path)
    assert (type(info.value), str(info.value)) == want_error


def inf_or(values):
    return st.just("inf") | values


@st.composite
def scenario_texts(draw):
    """A scenario file, compact and indented, with each theta entry written
    as its repr or with 17 or 40 significant digits; now and then one theta
    entry is any finite float, and a field may hold an integer past int64."""
    n_uavs, n_vehicles = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    uavs = []
    for _ in range(n_uavs):
        x, u = draw(st.floats(1e-3, 1e4)), draw(st.floats(1.0, 200.0))
        uav = {"x": x, "u": u}
        if draw(st.booleans()):
            uav["deadline"] = draw(inf_or(st.floats(1.0, 10.0).map(lambda k: k * x / u)))
        if draw(st.booleans()):
            capacity = draw(st.floats(1e-3, 1e3))
            uav["battery_capacity"] = capacity
            uav["battery_level"] = draw(st.floats(0.0, 1.0)) * capacity
        uavs.append(uav)
    vehicles = []
    for _ in range(n_vehicles):
        vehicle = {"v": draw(st.floats(1.0, 200.0))}
        if draw(st.booleans()):
            vehicle["gamma"] = draw(inf_or(st.floats(0.0, 2.0)))
        if draw(st.booleans()):
            vehicle["capacity"] = draw(st.integers(1, 3) | st.integers(1, 2**70))
        vehicles.append(vehicle)
    entry = st.floats(0.0, math.pi) | st.sampled_from([-0.0, 5e-324, math.pi])
    theta = draw(st.lists(entry, min_size=n_uavs * n_vehicles, max_size=n_uavs * n_vehicles))
    if theta and draw(st.booleans()):
        theta[draw(st.integers(0, len(theta) - 1))] = draw(
            st.floats(allow_nan=False, allow_infinity=False)
        )
    digits = draw(st.lists(st.sampled_from([None, ".17g", ".40g"]),
                           min_size=len(theta), max_size=len(theta)))
    cells = [repr(t) if d is None else format(t, d) for t, d in zip(theta, digits)]
    if n_vehicles and draw(st.booleans()):
        rows = [cells[i * n_vehicles:(i + 1) * n_vehicles] for i in range(n_uavs)]
        theta_text = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    else:
        theta_text = "[" + ",".join(cells) + "]"
    data = {
        "config": {"omega": draw(st.floats(0.0, 1.0)), "tol": draw(st.floats(1e-12, 1e-3))},
        "uavs": uavs,
        "vehicles": vehicles,
        "theta": "@THETA@",  # the first string of the dump; replaced by theta_text
    }
    if draw(st.booleans()):
        data["seed"] = draw(st.integers(-(2**70), 2**70))
    if draw(st.booleans()):
        data["label"] = draw(st.text(max_size=6))
    ascii_only = draw(st.booleans())
    return [
        json.dumps(data, indent=indent, ensure_ascii=ascii_only).replace('"@THETA@"', theta_text, 1)
        for indent in (None, 2)
    ]


@settings(max_examples=200, deadline=None)
@given(texts=scenario_texts())
def test_load_scenario_equals_json_on_drawn_files(tmp_path_factory, texts):
    path = tmp_path_factory.mktemp("drawn") / "s.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        assert_loads_as_json(path)


EDGE_BASE = json.dumps(
    {
        "config": {"omega": 0.8, "tol": 1e-9},
        "uavs": [{"x": 5.0, "u": 60.0}],
        "vehicles": [{"v": 40.0, "gamma": 0.3, "capacity": 2}],
        "theta": [0.5],
        "seed": 3,
        "label": "edge",
    },
    indent=2,
)


def edge_file(old: str, new: str) -> bytes:
    assert old in EDGE_BASE
    return EDGE_BASE.replace(old, new, 1).encode()


@pytest.mark.parametrize(
    "raw",
    [
        edge_file("0.5", "NaN"),
        edge_file("0.5", "Infinity"),
        edge_file("0.5", "-Infinity"),
        edge_file('"x": 5.0', '"x": Infinity'),
        edge_file('"x": 5.0', '"x": 1e400'),
        edge_file("0.5", "1.7976931348623159e308"),
        edge_file('"x": 5.0', f'"x": {10**400}'),
        edge_file('"capacity": 2', f'"capacity": {2**64}'),
        edge_file('"seed": 3', f'"seed": {2**64}'),
        edge_file('"seed": 3', f'"seed": {-(2**63) - 1}'),
        edge_file('"x": 5.0', f'"x": {2**64}'),
        edge_file("0.5", f"{-(2**63) - 1}"),
        edge_file('"edge"', '"\\ud800"'),
        edge_file('"edge"', '"\\udc00x"'),
        b"\xef\xbb\xbf" + EDGE_BASE.encode(),
        edge_file('"edge"', '"@"').replace(b"@", b"\xff"),
        edge_file('"edge"', '"@"').replace(b"@", b"\xed\xa0\x80"),
        EDGE_BASE.replace("\n", "\r\n").encode(),
        edge_file('"seed": 3', '"seed": 3, "seed": 4'),
        edge_file('"v": 40.0', '"v": 40.0, "v": 20.0'),
        b"",
        edge_file('"edge"', "[" * 2000 + "]" * 2000),
        edge_file("0.5", "[" * 2000 + "]" * 2000),
    ],
    ids=[
        "nan", "infinity", "minus_infinity", "infinity_x", "1e400", "past_max_double",
        "401_digits", "capacity_2_64", "seed_2_64", "seed_below_int64", "x_2_64",
        "theta_below_int64", "lone_high_surrogate", "lone_low_surrogate", "bom",
        "invalid_utf8", "utf8_encoded_surrogate", "crlf", "duplicate_key",
        "duplicate_entry_key", "empty", "deep_label", "deep_theta",
    ],
)
def test_load_scenario_equals_json_on_edge_cases(tmp_path, raw):
    path = tmp_path / "edge.json"
    path.write_bytes(raw)
    assert_loads_as_json(path)


def test_an_ordinary_file_never_reaches_json(tmp_path, monkeypatch):
    p = GeneratorParams(n_uavs=20, n_vehicles=40, theta_range=case_theta_range(1), label="t")
    s = generate_scenario(p, 5)
    indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
    save_scenario(s, str(indented))
    compact.write_text(json.dumps(scenario_to_dict(s), separators=(",", ":")))

    def refuse(*args, **kwargs):
        raise AssertionError("json.load was called")

    monkeypatch.setattr(scenario_io.json, "load", refuse)
    for path in (indented, compact):
        assert dump_scenario(load_scenario(str(path))) == dump_scenario(s)

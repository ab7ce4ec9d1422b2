import json
import math
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavhitch.cli import _json_floats, _match_json, build_parser, main
from uavhitch.model import Binding, PlannerConfig, UavTask, VehicleOffer
from uavhitch.planner import _BINDINGS, UNBOUNDED_MESSAGE
from uavhitch.scenario_io import load_scenario, save_scenario
from uavhitch.simlab import (
    SWEEP_PARAMETERS,
    GeneratorParams,
    case_theta_range,
    generate_scenario,
)


def run_cli(args, tmp_path=None):
    return main(args)


def test_plan_speed_too_low(capsys):
    assert main(["plan", "--x", "5", "--u", "60", "--v", "12", "--gamma", "0",
                 "--theta", "0.3", "--omega", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "speed_too_low" in out
    assert "no_hitch" in out


def test_plan_full_energy_weight_json(capsys):
    assert main(["plan", "--x", "5", "--u", "60", "--v", "40", "--gamma", "0",
                 "--theta", "0.4", "--omega", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["y_star"] == pytest.approx(5 * math.cos(0.4), rel=1e-12)
    assert data["binding"] == "interior"


def test_plan_near_threshold_boundary(capsys):
    # theta just inside the threshold angle: vanishing ride and saving
    phi = math.acos(0.3)
    assert main(["plan", "--x", "5", "--u", "60", "--v", "40", "--theta",
                 repr(phi - 5e-10), "--omega", "0.8", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["y_star"]) < 1e-6
    assert abs(data["saving"]) < 1e-9


def test_plan_degrees_flag(capsys):
    assert main(["plan", "--x", "5", "--v", "40", "--theta", "45", "--degrees",
                 "--format", "json"]) == 0
    assert main(["plan", "--x", "5", "--v", "40", "--theta", repr(math.pi / 4),
                 "--format", "json"]) == 0
    two = capsys.readouterr().out.strip().splitlines()
    # both invocations print identical JSON
    half = len(two) // 2
    assert two[:half] == two[half:]


def test_plan_invalid_params_exit_2(capsys):
    assert main(["plan", "--x", "-5", "--v", "40"]) == 2
    err = capsys.readouterr().err
    assert "positive" in err


@pytest.mark.parametrize("option", ["--x", "--u", "--v"])
def test_plan_non_finite_input_exit_2(capsys, option):
    # JSON has no Infinity or NaN: such a plan must not be printed at all
    args = {"--x": "5", "--u": "60", "--v": "40", option: "inf"}
    assert main(["plan", *[a for kv in args.items() for a in kv], "--format", "json"]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


def test_plan_overflowing_direct_flight_time_exit_2(capsys):
    # x and u each pass their own check, but x / u overflows to inf.
    argv = ["plan", "--x", "1e308", "--u", "1e-300", "--v", "40", "--format", "json"]
    assert main(argv) == 2
    message = model_message(lambda: UavTask(x=1e308, u=1e-300))
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_capacity_beyond_uav_count_changes_nothing(tmp_path):
    # Seats beyond the UAV count are never expanded into columns.
    outputs = []
    for capacity in (2, 10**6):
        scenario = {**SCENARIO, "uavs": [{"x": 5.0, "u": 60.0}, {"x": 8.0, "u": 60.0}],
                    "vehicles": [{"v": 40.0, "gamma": 0.3, "capacity": capacity}],
                    "theta": [0.2, 0.4]}
        path, out = tmp_path / "fleet.json", tmp_path / f"match{capacity}.json"
        path.write_text(json.dumps(scenario))
        assert main(["match", str(path), "--format", "json", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_plan_battery_swap(capsys):
    assert main(["plan", "--x", "5", "--v", "40", "--gamma", "inf", "--theta", "2.0",
                 "--battery-capacity", "1.0", "--battery-level", "0.2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["swap_and_depart"] is True
    assert data["eligible"] is True


def simulate_args(out, extra=()):
    return [
        "simulate", "--case", "1", "--uavs", "3,5", "--vehicles", "6",
        "--trials", "4", "--seed", "7", "--output", out, *extra,
    ]


def test_simulate_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(simulate_args(a)) == 0
    assert main(simulate_args(b)) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    header = open(a).readline().strip()
    assert header == (
        "uav_count,n_trials,mean_direct,mean_greedy,mean_msa,std_msa,"
        "mean_saving_msa,mean_saving_greedy,mean_iterations"
    )


def test_simulate_has_no_workers_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(simulate_args(str(tmp_path / "a.csv"), ["--workers", "2"]))
    assert exc.value.code == 2


def test_emitted_scenarios_validate_and_match(tmp_path):
    out = str(tmp_path / "sim.csv")
    scen_dir = tmp_path / "scen"
    assert main(simulate_args(out, ["--emit-scenarios", str(scen_dir)])) == 0
    files = sorted(scen_dir.glob("*.json"))
    assert len(files) == 8  # two counts x four trials
    assert main(["validate", *[str(f) for f in files]]) == 0
    s = load_scenario(str(files[0]))
    assert len(s.offers) == 6


def test_match_solvers_agree(tmp_path, capsys):
    scen_dir = tmp_path / "scen"
    main(simulate_args(str(tmp_path / "sim.csv"), ["--emit-scenarios", str(scen_dir)]))
    path = str(sorted(scen_dir.glob("*I5*.json"))[0])
    totals = {}
    for solver in ("msa", "brute", "greedy"):
        assert main(["match", path, "--solver", solver, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        totals[solver] = data["total_saving"]
    assert totals["msa"] == pytest.approx(totals["brute"], abs=1e-9)
    assert totals["greedy"] <= totals["msa"] + 1e-9


def test_match_msa_reports_certificate(tmp_path, capsys):
    scen_dir = tmp_path / "scen"
    main(simulate_args(str(tmp_path / "sim.csv"), ["--emit-scenarios", str(scen_dir)]))
    path = str(sorted(scen_dir.glob("*.json"))[0])
    assert main(["match", path]) == 0
    out = capsys.readouterr().out
    assert "dual_certificate: ok" in out


def test_match_brute_size_guard_exit_3(tmp_path, capsys):
    out = str(tmp_path / "sim.csv")
    scen_dir = tmp_path / "big"
    assert main([
        "simulate", "--case", "1", "--uavs", "9", "--vehicles", "9", "--trials", "1",
        "--seed", "1", "--output", out, "--emit-scenarios", str(scen_dir),
    ]) == 0
    path = str(next(scen_dir.glob("*.json")))
    assert main(["match", path, "--solver", "brute"]) == 3
    assert "guard" in capsys.readouterr().err


def test_match_invalid_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"config": {"omega": 0.8, "tol": 1e-9}}')
    assert main(["match", str(bad)]) == 2
    assert main(["validate", str(bad)]) == 2
    assert main(["match", str(tmp_path / "missing.json")]) == 2


def test_match_unbounded_pair_names_uav_and_vehicle(tmp_path, capsys):
    # vehicle 1 charges so fast that, with no deadline, riding never stops paying
    scenario = {
        "config": {"omega": 0.8, "tol": 1e-9},
        "uavs": [{"x": 5.0, "u": 60.0}],
        "vehicles": [{"v": 40.0, "gamma": 0.0}, {"v": 40.0, "gamma": 5.0}],
        "theta": [0.3, 0.3],
    }
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(scenario))
    assert main(["match", str(path)]) == 2
    err = capsys.readouterr().err
    assert "uav 0" in err and "vehicle 1" in err


def test_infinite_tol_rejected(tmp_path, capsys):
    assert main(["plan", "--x", "5", "--v", "40", "--tol", "inf"]) == 2
    assert "tol" in capsys.readouterr().err
    scenario = {
        "config": {"omega": 0.8, "tol": "inf"},
        "uavs": [{"x": 5.0, "u": 60.0}],
        "vehicles": [{"v": 40.0}],
        "theta": [0.3],
    }
    path = tmp_path / "inf_tol.json"
    path.write_text(json.dumps(scenario))
    assert main(["match", str(path)]) == 2
    assert "tol" in capsys.readouterr().err


def test_huge_finite_tol_rejected(tmp_path, capsys):
    # At tol 1e300 every vehicle would silently come out ineligible.
    assert main(["plan", "--x", "5", "--v", "40", "--tol", "1e300"]) == 2
    assert "tol must be positive and at most 0.001" in capsys.readouterr().err
    scenario = {
        "config": {"omega": 0.8, "tol": 1.0},
        "uavs": [{"x": 5.0, "u": 60.0}],
        "vehicles": [{"v": 40.0}],
        "theta": [0.3],
    }
    path = tmp_path / "huge_tol.json"
    path.write_text(json.dumps(scenario))
    assert main(["match", str(path)]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [1e-13, 1e-15])
def test_tol_below_the_certificate_floor_rejected(tmp_path, capsys, tol):
    # Below 1e-12 the certificate would read false on the matcher's own
    # optimum, with the same total saving.
    assert main(["plan", "--x", "5", "--v", "40", "--tol", repr(tol)]) == 2
    assert f"tol must be at least 1e-12, got {tol!r}" in capsys.readouterr().err
    scenario = {
        "config": {"omega": 0.8, "tol": tol},
        "uavs": [{"x": 5.0, "u": 60.0}],
        "vehicles": [{"v": 40.0}],
        "theta": [0.3],
    }
    path = tmp_path / "tiny_tol.json"
    path.write_text(json.dumps(scenario))
    assert main(["match", str(path)]) == 2
    assert "tol must be at least 1e-12" in capsys.readouterr().err


def test_tol_at_the_certificate_floor_accepted(tmp_path, capsys):
    assert main(["plan", "--x", "5", "--v", "40", "--tol", "1e-12"]) == 0
    capsys.readouterr()
    scenario = {
        "config": {"omega": 0.8, "tol": 1e-12},
        "uavs": [{"x": 5.0, "u": 60.0}, {"x": 12.0, "u": 60.0}],
        "vehicles": [{"v": 40.0}, {"v": 50.0, "gamma": 0.3}],
        "theta": [0.3, 0.1, 0.2, 0.4],
    }
    path = tmp_path / "floor_tol.json"
    path.write_text(json.dumps(scenario))
    assert main(["match", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["pairs"]) == 2 and out["dual_certificate"] is True


SCENARIO = {
    "config": {"omega": 0.8, "tol": 1e-9},
    "uavs": [{"x": 5.0, "u": 60.0}],
    "vehicles": [{"v": 40.0}],
    "theta": [0.3],
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("config", [], "config must be an object, got list"),
        ("uavs", [5], "uavs[0] must be an object, got int"),
        ("vehicles", [{"v": 40.0}, "fast"], "vehicles[1] must be an object, got str"),
        ("theta", 0.1, "theta must be a list, got float"),
        ("theta", [[0.3], 0.1], "theta[1] must be a list, got float"),
        ("uavs", [{"x": "inf", "u": 60.0}], "uavs[0]: distance x must be positive and finite"),
        ("uavs", [{"x": -1.0, "u": 60.0}], "uavs[0]: distance x must be positive and finite"),
        ("uavs", [{"x": 5.0, "u": "inf"}], "uavs[0]: flight speed u must be positive and finite"),
        ("vehicles", [{"v": "inf"}], "vehicles[0]: vehicle speed v must be positive and finite"),
        ("theta", [4.0], "theta[0,0]: theta must be in [0, pi], got 4.0"),
        ("theta", [math.nan], "theta[0,0]: theta must be in [0, pi], got nan"),
        ("theta", [-0.1], "theta[0,0]: theta must be in [0, pi], got -0.1"),
        ("theta", [3.2], "theta[0,0]: theta must be in [0, pi], got 3.2"),
        ("theta", ["inf"], "theta[0,0]: theta must be in [0, pi], got inf"),
        ("theta", [True], "theta[0,0]: expected a number or 'inf', got True"),
        ("theta", ["0.5"], "theta[0,0]: expected a number or 'inf', got '0.5'"),
        ("theta", [None], "theta[0,0]: expected a number or 'inf', got None"),
        # 401-digit ints, past the float range
        ("uavs", [{"x": 10**400, "u": 60.0}], "uavs[0].x: integer too large for a float"),
        ("theta", [10**400], "theta[0,0]: integer too large for a float"),
        ("config", {"omega": 10**400, "tol": 1e-9}, "config.omega: integer too large for a float"),
        ("vehicles", [{"v": 40.0, "capacity": True}], "vehicles[0].capacity must be an integer"),
        # x and u each pass their own check, but x / u overflows.
        ("uavs", [{"x": 1e308, "u": 1e-300}], "uavs[0]: direct flight time x/u must be finite"),
    ],
)
def test_malformed_scenario_names_field(tmp_path, capsys, field, value, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({**SCENARIO, field: value}))  # math.nan is written as NaN
    assert main(["match", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_sweep_speed_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--kind", "speed", "--x", "5", "--omega", "0.8", "--u", "60",
                 "--v-min", "4", "--v-max", "20", "--points", "17", "--output", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "v,value"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    baseline = 5 / 60
    for v, c in rows:
        assert (c < baseline) == (v > 12.0)


def test_sweep_surface_matches_direct_evaluation(tmp_path):
    from uavhitch import PairGeometry, PlannerConfig, UavTask, VehicleOffer, plan_pair

    out = str(tmp_path / "surface.csv")
    assert main(["sweep", "--kind", "surface", "--v-points", "5", "--gamma-points", "3",
                 "--output", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "v,gamma,value"
    cfg, task = PlannerConfig(omega=0.8), UavTask(x=5, u=60)
    for ln in lines[1:11]:
        v, g, c = map(float, ln.split(","))
        plan = plan_pair(cfg, task, VehicleOffer(v=v, gamma=g), PairGeometry(0.0))
        assert c == pytest.approx(plan.consumption, abs=1e-12)


def test_sweep_invalid_range_exit_2(capsys):
    assert main(["sweep", "--kind", "gamma", "--gamma-max", "9.0"]) == 2
    assert "deadline" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, point",
    [
        (["--kind", "gamma", "--omega", "0.8", "--gamma-max", "5"], "gamma=0.875"),
        (["--kind", "surface", "--gamma-max", "5"], "v=20.0, gamma=0.7000000000000001"),
        # Descending: the negative rates after the first point are invalid,
        # but the sweep fails on its first bad point.
        (["--kind", "gamma", "--omega", "0.8", "--gamma-min", "5", "--gamma-max", "-1"],
         "gamma=5.0"),
    ],
    ids=["gamma", "surface", "descending"],
)
def test_sweep_names_the_first_point_with_no_finite_optimum(capsys, options, point):
    # The first point in row order at which omega*gamma >= 1 - omega + v/u,
    # where consumption keeps falling with the riding distance.
    assert main(["sweep", *options]) == 2
    assert capsys.readouterr().err == f"error: {point}: {UNBOUNDED_MESSAGE}\n"


def test_sweep_swap_vehicle_matches_plan(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "speed", "--gamma", "inf", "--points", "3",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "v,value" and len(lines) == 4
    for line in lines[1:]:
        v, value = line.split(",")
        assert main(["plan", "--x", "5", "--gamma", "inf", "--v", v, "--format", "json"]) == 0
        assert float(value) == json.loads(capsys.readouterr().out)["consumption"]


def test_sweep_negative_headroom_exit_2(capsys):
    assert main(["sweep", "--kind", "battery", "--delta-e-min", "-0.1"]) == 2
    assert "delta_e must be nonnegative, got -0.1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, option, value",
    [("speed", "--v-max", "inf"), ("speed", "--v-max", "nan"), ("speed", "--v-min", "inf"),
     ("battery", "--delta-e-max", "inf"), ("gamma", "--gamma-max", "nan"),
     ("surface", "--gamma-min=-inf", None)],
)
def test_sweep_non_finite_axis_bound_exit_2(capsys, kind, option, value):
    # The bound is named, not the nan a point of its axis would be.
    args = [option] if value is None else [option, value]
    assert main(["sweep", "--kind", kind, *args]) == 2
    if value is None:
        option, value = option.split("=")
    name = option[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be finite, got {float(value)}\n"


@pytest.mark.parametrize(
    "kind, option, value",
    [("speed", "--points", "0"), ("surface", "--v-points", "-3"), ("surface", "--gamma-points", "0")],
)
def test_sweep_point_count_below_one_exit_2(capsys, kind, option, value):
    assert main(["sweep", "--kind", kind, option, value]) == 2
    name = option[2:].replace("-", "_")
    assert f"{name} must be at least 1, got {value}" in capsys.readouterr().err


# Every sweep flag, a value valid for every kind, and the kinds that take it.
SWEEP_FLAG_KINDS = {
    "--x": ("4", {"speed", "gamma", "surface", "battery"}),
    "--u": ("50", {"speed", "gamma", "surface", "battery"}),
    "--v": ("30", {"gamma", "battery"}),
    "--omega": ("0.7", {"speed", "gamma", "surface", "battery"}),
    "--theta": ("0.2", {"speed", "gamma", "surface", "battery"}),
    "--gamma": ("0.1", {"speed", "battery"}),
    "--deadline": ("0.5", {"speed", "gamma", "surface", "battery"}),
    "--v-min": ("25", {"speed", "surface"}),
    "--v-max": ("50", {"speed", "surface"}),
    "--gamma-min": ("0.05", {"gamma", "surface"}),
    "--gamma-max": ("0.2", {"gamma", "surface"}),
    "--delta-e-min": ("0.01", {"battery"}),
    "--delta-e-max": ("0.03", {"battery"}),
    "--points": ("3", {"speed", "gamma", "battery"}),
    "--v-points": ("3", {"surface"}),
    "--gamma-points": ("3", {"surface"}),
}
SWEEP_SMALL_GRID = {
    "speed": ["--points", "2"],
    "gamma": ["--points", "2"],
    "surface": ["--v-points", "2", "--gamma-points", "2"],
    "battery": ["--points", "2"],
}


def test_sweep_flag_table_lists_every_flag(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - {"--help", "--kind", "--output"} == set(SWEEP_FLAG_KINDS)


@pytest.mark.parametrize("kind", sorted(SWEEP_SMALL_GRID))
@pytest.mark.parametrize("flag", sorted(SWEEP_FLAG_KINDS))
def test_sweep_kind_takes_exactly_its_flags(tmp_path, capsys, kind, flag):
    value, kinds = SWEEP_FLAG_KINDS[flag]
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--kind", kind, *SWEEP_SMALL_GRID[kind], flag, value, "--output", out])
    err = capsys.readouterr().err
    if kind in kinds:
        assert code == 0, err
    else:
        assert code == 2
        assert "unknown sweep parameters" in err


def test_exit_codes_via_subprocess(tmp_path):
    # real-process check of the exit-code contract
    r = subprocess.run(
        [sys.executable, "-m", "uavhitch.cli", "plan", "--x", "5", "--v", "40"],
        capture_output=True,
    )
    assert r.returncode == 0
    r = subprocess.run(
        [sys.executable, "-m", "uavhitch.cli", "plan", "--x", "oops", "--v", "40"],
        capture_output=True,
    )
    assert r.returncode == 2


def test_seed_env_default(tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    monkeypatch.setenv("UAVHITCH_SEED", "7")
    args = ["simulate", "--case", "1", "--uavs", "3", "--vehicles", "4", "--trials", "2"]
    assert main([*args, "--output", a]) == 0
    monkeypatch.delenv("UAVHITCH_SEED")
    assert main([*args, "--seed", "7", "--output", b]) == 0
    assert open(a).read() == open(b).read()


@pytest.mark.parametrize(
    "env, flags, message",
    [
        ("abc", [], "UAVHITCH_SEED must be an integer >= 0, got 'abc'"),
        ("-3", [], "UAVHITCH_SEED must be an integer >= 0, got '-3'"),
        (None, ["--seed", "-3"], "argument --seed: must be an integer >= 0, got '-3'"),
        (None, ["--seed", "abc"], "argument --seed: must be an integer >= 0, got 'abc'"),
        (None, ["--uavs", "5,x"], "argument --uavs: must be comma-separated integers, got '5,x'"),
        (None, ["--uavs", "-5"], "argument --uavs: counts must be >= 0, got '-5'"),
        (None, ["--vehicles", "-1"], "argument --vehicles: must be an integer >= 0, got '-1'"),
        (None, ["--trials", "0"], "argument --trials: must be an integer >= 1, got '0'"),
        # NaN passes a `< 1.0` check; with no UAV drawn it would also exit 0.
        (None, ["--deadline-factor", "nan"],
         "deadline_factor below 1 makes the direct flight infeasible"),
        (None, ["--uavs", "0", "--deadline-factor", "nan"],
         "deadline_factor below 1 makes the direct flight infeasible"),
        # An empty item or list used to be dropped: a header-only CSV, exit 0.
        (None, ["--uavs", ","], "argument --uavs: must be comma-separated integers, got ','"),
        (None, ["--uavs", ""], "argument --uavs: must be comma-separated integers, got ''"),
        (None, ["--uavs", "5,,10"],
         "argument --uavs: must be comma-separated integers, got '5,,10'"),
    ],
)
def test_simulate_names_bad_seed_or_count(tmp_path, monkeypatch, capsys, env, flags, message):
    if env is None:
        monkeypatch.delenv("UAVHITCH_SEED", raising=False)
    else:
        monkeypatch.setenv("UAVHITCH_SEED", env)
    args = ["simulate", "--case", "1", "--uavs", "3", "--vehicles", "4", "--trials", "1",
            "--output", str(tmp_path / "a.csv"), *flags]
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects a flag's value itself
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def model_message(make) -> str:
    with pytest.raises(ValueError) as exc:
        make()
    return str(exc.value)


@pytest.mark.parametrize(
    "flags, make",
    [
        (["--uavs", "0", "--u", "-5"], lambda: UavTask(x=20.0, u=-5.0)),
        (["--vehicles", "0", "--v", "0", "--gamma", "-1"],
         lambda: VehicleOffer(v=0.0, gamma=-1.0)),
        (["--vehicles", "0", "--gamma", "-1"], lambda: VehicleOffer(v=40.0, gamma=-1.0)),
        (["--vehicles", "0", "--capacity", "0"], lambda: VehicleOffer(v=40.0, capacity=0)),
        (["--uavs", "0", "--x-max", "1e308", "--u", "1e-300"],
         lambda: UavTask(x=1e308, u=1e-300)),
    ],
)
def test_simulate_checks_model_flags_when_nothing_is_drawn(tmp_path, capsys, flags, make):
    # The same flags fail once a UAV or a vehicle is drawn; with none drawn
    # they must fail too, with the model's own message.
    out = tmp_path / "a.csv"
    args = ["simulate", "--case", "1", "--uavs", "3", "--vehicles", "4", "--trials", "1",
            "--output", str(out), *flags]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {model_message(make)}\n"
    assert not out.exists()


PAIR_FLOATS = ("y_star", "total_time", "energy", "consumption", "saving")
PAIR_KEYS = ("uav", "vehicle", *PAIR_FLOATS, "binding")
NO_PAIRS = ([],) * len(PAIR_KEYS)


def match_payload(solver, n_uavs, n_vehicles, pairs, total_saving, iterations, certificate):
    """The ``match`` JSON payload as a dict, as ``json.dumps`` would be given it."""
    return {
        "solver": solver,
        "n_uavs": n_uavs,
        "n_vehicles": n_vehicles,
        "pairs": [
            {**dict(zip(PAIR_KEYS, pair[:-1])), "binding": _BINDINGS[pair[-1]].value}
            for pair in zip(*pairs)
        ],
        "total_saving": total_saving,
        "iterations": iterations,
        "dual_certificate": certificate,
    }


def assert_match_json_is_json_dumps(*args):
    assert _match_json(*args) == json.dumps(match_payload(*args), indent=2) + "\n"


# st.floats draws -0.0 and subnormals among the finite floats.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PAIR = st.tuples(
    st.integers(), st.integers(), *[FINITE] * len(PAIR_FLOATS),
    st.sampled_from(range(len(_BINDINGS))),
)


@given(
    solver=st.text(),
    n_uavs=st.integers(),
    n_vehicles=st.integers(),
    pairs=st.lists(PAIR, max_size=6),
    total_saving=FINITE,
    iterations=st.integers(),
    certificate=st.sampled_from([True, False, None]),
)
def test_match_json_equals_json_dumps(
    solver, n_uavs, n_vehicles, pairs, total_saving, iterations, certificate
):
    columns = tuple(map(list, zip(*pairs))) if pairs else NO_PAIRS
    assert_match_json_is_json_dumps(
        solver, n_uavs, n_vehicles, columns, total_saving, iterations, certificate
    )


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", [*PAIR_FLOATS, "total_saving"])
@pytest.mark.parametrize("certificate", [True, False, None])
def test_match_json_writes_non_finite_floats_as_json_dumps(field, value, certificate):
    floats = {name: [0.5, -0.0, 5e-324] for name in PAIR_FLOATS}
    total_saving = 1.25
    if field == "total_saving":
        total_saving = value
    else:
        floats[field][1] = value
    bindings = [_BINDINGS.index(b) for b in (Binding.INTERIOR, Binding.NO_HITCH, Binding.DEADLINE)]
    pairs = ([0, 1, 2], [2, 0, 1], *floats.values(), bindings)
    assert_match_json_is_json_dumps("msa", 3, 3, pairs, total_saving, 7, certificate)


@pytest.mark.parametrize("solver", ["msa", "greedy", "brute"])
def test_match_json_with_no_saving_pair_writes_an_empty_list(tmp_path, solver):
    # At theta = pi no vehicle helps, so every UAV flies direct.
    scenario = {**SCENARIO, "uavs": [{"x": 5.0, "u": 60.0}, {"x": 8.0, "u": 60.0}],
                "vehicles": [{"v": 40.0, "gamma": 0.3}, {"v": 50.0}], "theta": [math.pi] * 4}
    path, out = tmp_path / "direct.json", tmp_path / "match.json"
    path.write_text(json.dumps(scenario))
    assert main(["match", str(path), "--solver", solver, "--format", "json",
                 "--output", str(out)]) == 0
    certificate = True if solver == "msa" else None
    payload = match_payload(solver, 2, 2, NO_PAIRS, 0.0, 0, certificate)
    assert payload["pairs"] == []
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


def ulps_from(value, k):
    """The float ``k`` steps from ``value``; negative steps go down."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


# Where repr switches between positional and exponent form, at both signs.
REPR_EDGES = (1e-4, -1e-4, 1e16, -1e16)
EDGE_FLOATS = st.one_of(
    FINITE,
    st.builds(ulps_from, st.sampled_from(REPR_EDGES), st.integers(-4, 4)),
    st.floats(-2.3e-308, 2.3e-308),  # zeros and subnormals
    st.sampled_from([0.0, -0.0, sys.float_info.max, -sys.float_info.max]),
    st.builds(lambda e, sign: sign * 10.0**e, st.integers(-323, 308), st.sampled_from([1, -1])),
)


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("size", [0, 1, 100])
@given(data=st.data())
def test_json_floats_equals_json_dumps(size, as_array, data):
    # orjson writes the column; a change to its float text fails here.
    column = data.draw(st.lists(EDGE_FLOATS, min_size=size, max_size=size))
    values = np.array(column, dtype=np.float64) if as_array else column
    assert _json_floats(values) == [json.dumps(v) for v in column]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_json_floats_at_the_exponent_form_edges(as_array):
    column = [ulps_from(edge, k) for edge in REPR_EDGES for k in range(-4, 5)]
    column += [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
    column += [10.0**e for e in range(-6, 18)]
    values = np.array(column, dtype=np.float64) if as_array else column
    assert _json_floats(values) == [json.dumps(v) for v in column]


def test_match_json_of_a_full_size_fleet_equals_json_dumps(tmp_path):
    # fleet_cap's size: 400 UAVs on 40 vehicles of capacity 10, about 2,000
    # floats written, a few of them in exponent form.
    params = GeneratorParams(
        n_uavs=400, n_vehicles=40, capacity=10, theta_range=case_theta_range(1)
    )
    path, out = tmp_path / "fleet.json", tmp_path / "match.json"
    save_scenario(generate_scenario(params, 7), str(path))
    assert main(["match", str(path), "--format", "json", "--output", str(out)]) == 0
    text = out.read_text()
    payload = json.loads(text)
    assert len(payload["pairs"]) == 399
    assert re.search(r"\de-\d", text)
    assert text == json.dumps(payload, indent=2) + "\n"


def test_seed_flag_overrides_a_bad_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("UAVHITCH_SEED", "abc")
    args = ["simulate", "--case", "1", "--uavs", "3", "--vehicles", "4", "--trials", "1"]
    assert main([*args, "--seed", "0", "--output", str(tmp_path / "a.csv")]) == 0


@pytest.mark.parametrize(
    "part, key, message",
    [
        ("uavs", "dealine", "uavs[0]: unknown keys ['dealine']"),
        ("vehicles", "capcity", "vehicles[0]: unknown keys ['capcity']"),
        ("config", "omgea", "config: unknown keys ['omgea']"),
        (None, "sead", "scenario: unknown keys ['sead']"),
    ],
)
def test_validate_rejects_misspelled_key(tmp_path, capsys, part, key, message):
    scenario = json.loads(json.dumps(SCENARIO))
    if part is None:
        scenario[key] = 3
    elif part == "config":
        scenario["config"][key] = scenario["config"].pop("omega")
    else:
        scenario[part][0][key] = 2
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(scenario))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_names_a_file_that_is_not_utf8(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "bad.json"
    good.write_text(json.dumps(SCENARIO))
    text = json.dumps({**SCENARIO, "label": "@"})
    bad.write_bytes(text.encode().replace(b"@", b"\xff"))
    assert main(["validate", str(good), str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == f"{good}: ok (1 uavs, 1 vehicles)\n"
    at = text.index("@")
    assert err == (
        f"error: {bad}: not valid UTF-8 ('utf-8' codec can't decode byte 0xff "
        f"in position {at}: invalid start byte)\n"
    )


def test_one_parser_answers_every_call_as_a_fresh_process(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(SCENARIO))
    simulate = ["simulate", "--case", "1", "--uavs", "3", "--vehicles", "4", "--trials", "2"]
    calls = [
        (None, ["match", str(scenario), "--format", "json"]),
        (None, ["match", str(scenario), "--solver", "fastest"]),  # argparse exits 2
        ("7", simulate),
        ("8", simulate),
    ]
    # The usage text wraps at the terminal width, which COLUMNS fixes.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("UAVHITCH_SEED", raising=False)
    parser = build_parser()
    outputs = []
    for seed, argv in calls:
        env = {**os.environ, **({"UAVHITCH_SEED": seed} if seed else {})}
        fresh = subprocess.run(
            [sys.executable, "-m", "uavhitch.cli", *argv], capture_output=True, env=env
        )
        if seed:
            monkeypatch.setenv("UAVHITCH_SEED", seed)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)
        outputs.append(out)
    assert build_parser() is parser
    assert outputs[2] != outputs[3]  # each call read its own UAVHITCH_SEED


def test_simulate_stops_at_the_first_trial_with_no_finite_optimum(tmp_path, capsys):
    # At gamma = 5 no pair has a finite optimum without a deadline. The
    # first trial's file is written before it is planned; no later trial
    # is written, and no CSV.
    scen_dir, out = tmp_path / "scen", tmp_path / "sim.csv"
    assert main([
        "simulate", "--case", "1", "--uavs", "3,5", "--vehicles", "4", "--trials", "3",
        "--gamma", "5", "--seed", "1", "--output", str(out), "--emit-scenarios", str(scen_dir),
    ]) == 2
    assert capsys.readouterr().err == f"error: uav 0, vehicle 0: {UNBOUNDED_MESSAGE}\n"
    assert [p.name for p in scen_dir.iterdir()] == ["case1_I3_t0.json"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "match"])
def test_a_file_nested_too_deeply_exits_2_naming_it(tmp_path, capsys, command):
    # orjson refuses arrays nested past 1,024, and json's decoder then
    # runs out of recursion.
    path = tmp_path / "deep.json"
    text = json.dumps({**SCENARIO, "label": "@"})
    path.write_text(text.replace('"@"', "[" * 1500 + "]" * 1500))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: nested too deeply to read (maximum recursion depth")
    assert err.count("\n") == 1


def count_model_objects(monkeypatch) -> list:
    """Append the type of every ``UavTask`` and ``VehicleOffer`` made."""
    made = []
    for kind in (UavTask, VehicleOffer):
        check = kind.__post_init__

        def counting(self, check=check):
            made.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(kind, "__post_init__", counting)
    return made


@pytest.mark.parametrize("op", ["simulate", "match", "match_limited"])
def test_ops_make_no_model_object_per_entry(tmp_path, monkeypatch, op):
    # Scenarios are columns from the generator and the loader to the build:
    # a model object is made only when an entry is read, so the count of
    # them does not grow with the trials or the UAVs.
    made = count_model_objects(monkeypatch)
    counts = []
    for size in (1, 10) if op == "simulate" else (3, 30):
        if op == "simulate":
            argv = ["simulate", "--case", "1", "--uavs", "2,4", "--vehicles", "3",
                    "--trials", str(size), "--deadline-factor", "1.5"]
        else:
            path = tmp_path / f"fleet{size}.json"
            path.write_text(json.dumps({
                "config": {"omega": 0.8, "tol": 1e-9},
                "uavs": [{"x": 5.0 + 0.1 * i, "u": 60.0, "deadline": 0.5, "battery_capacity": 0.2,
                          "battery_level": 0.1} for i in range(size)],
                "vehicles": [{"v": 40.0, "gamma": g, "capacity": 2} for g in (0.3, "inf")],
                "theta": [0.1 * (k % 30) for k in range(2 * size)],
            }))
            argv = ["match", str(path), "--format", "json"]
            if op == "match_limited":
                argv.append("--limited")
        before = len(made)
        assert main([*argv, "--output", str(tmp_path / "out")]) == 0
        counts.append(len(made) - before)
    assert counts[0] == counts[1], counts


def fields_with_defaults(*kinds) -> set:
    return {f.name for kind in kinds for f in fields(kind) if f.default is not MISSING}


@pytest.mark.parametrize(
    "argv, names, count",
    [
        (["plan", "--x", "5", "--v", "40"],
         fields_with_defaults(PlannerConfig, UavTask, VehicleOffer), 6),
        (["simulate"], fields_with_defaults(GeneratorParams), 7),
        (["sweep", "--kind", "speed"], set(SWEEP_PARAMETERS), 16),
    ],
    ids=["plan", "simulate", "sweep"],
)
def test_an_omitted_flag_takes_the_library_default(argv, names, count):
    # A flag named after a library field with a default has none of its
    # own: omitted, it is None, and the command leaves the field to the
    # library.
    args = vars(build_parser().parse_args(argv))
    omitted = {name: args[name] for name in names & args.keys()}
    assert len(omitted) == count and set(omitted.values()) == {None}, omitted

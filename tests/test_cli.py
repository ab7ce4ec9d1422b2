import json
import math
import subprocess
import sys

import pytest

from uavhitch.cli import main
from uavhitch.scenario_io import load_scenario


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
    ],
)
def test_malformed_scenario_names_field(tmp_path, capsys, field, value, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({**SCENARIO, field: value}))
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
    from uavhitch import PairGeometry, PlannerConfig, UavTask, VehicleOffer, optimal_distance

    out = str(tmp_path / "surface.csv")
    assert main(["sweep", "--kind", "surface", "--v-points", "5", "--gamma-points", "3",
                 "--output", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "v,gamma,value"
    cfg, task = PlannerConfig(omega=0.8), UavTask(x=5, u=60)
    for ln in lines[1:11]:
        v, g, c = map(float, ln.split(","))
        plan = optimal_distance(cfg, task, VehicleOffer(v=v, gamma=g), PairGeometry(0.0))
        assert c == pytest.approx(plan.consumption, abs=1e-12)


def test_sweep_invalid_range_exit_2(capsys):
    assert main(["sweep", "--kind", "gamma", "--gamma-max", "9.0"]) == 2
    assert "deadline" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, option, value",
    [("speed", "--points", "0"), ("surface", "--v-points", "-3"), ("surface", "--gamma-points", "0")],
)
def test_sweep_point_count_below_one_exit_2(capsys, kind, option, value):
    assert main(["sweep", "--kind", kind, option, value]) == 2
    name = option[2:].replace("-", "_")
    assert f"{name} must be at least 1, got {value}" in capsys.readouterr().err


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

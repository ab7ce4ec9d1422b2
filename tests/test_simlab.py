import math
from dataclasses import replace

import pytest

from uavhitch import (
    GeneratorParams,
    PairGeometry,
    PlannerConfig,
    Scenario,
    UavTask,
    VehicleOffer,
    case_theta_range,
    generate_scenario,
    run_experiment,
    run_trial,
    scale_scenario,
    select_vehicle,
    sweep_curves,
)
from uavhitch.planner import UNBOUNDED_MESSAGE
from uavhitch.scenario_io import dump_scenario
from uavhitch.simlab import derive_trial_seed


def test_case_ranges():
    assert case_theta_range(1) == (0.0, math.pi)
    assert case_theta_range(2) == (0.0, math.pi / 2)
    with pytest.raises(ValueError):
        case_theta_range(3)


def test_empty_scenario():
    p = GeneratorParams(n_uavs=0, n_vehicles=0)
    s = generate_scenario(p, 1)
    assert s.tasks == [] and s.offers == [] and s.geoms.shape == (0, 0)
    r = run_trial(s)
    assert r.total_direct == 0.0 and r.saving_msa == 0.0


@pytest.mark.parametrize(
    "params, make",
    [
        ({"omega": 1.5}, lambda: PlannerConfig(omega=1.5)),
        ({"u": 0.0}, lambda: UavTask(x=20.0, u=0.0)),
        ({"x_max": math.inf}, lambda: UavTask(x=math.inf, u=60.0)),
        ({"v_range": (0.0, 40.0)}, lambda: VehicleOffer(v=0.0)),
        ({"v_range": (20.0, math.inf)}, lambda: VehicleOffer(v=math.inf)),
        ({"gamma_range": (-0.5, 0.5)}, lambda: VehicleOffer(v=40.0, gamma=-0.5)),
        ({"gamma_range": (0.0, math.nan)}, lambda: VehicleOffer(v=40.0, gamma=math.nan)),
        ({"capacity": 0}, lambda: VehicleOffer(v=40.0, capacity=0)),
    ],
)
def test_params_check_model_fields_with_the_model_message(params, make):
    # Checked once, when the params are made, so also with nothing to draw.
    with pytest.raises(ValueError) as expected:
        make()
    with pytest.raises(ValueError) as got:
        GeneratorParams(n_uavs=0, n_vehicles=0, **params)
    assert str(got.value) == str(expected.value)


def test_trial_totals_add_left_to_right():
    # sum() compensates rounding from Python 3.12 on and gives
    # 1.0000000000000002e16 here; left-to-right addition drops each 1.
    tasks = [UavTask(x=x, u=1.0) for x in (1e16, 1.0, 1.0)]
    s = Scenario(tasks=tasks, offers=[], geoms=[[], [], []], config=PlannerConfig())
    assert run_trial(s).total_direct == 1e16


def test_generation_is_deterministic():
    p = GeneratorParams(n_uavs=6, n_vehicles=4, theta_range=case_theta_range(1))
    assert dump_scenario(generate_scenario(p, 42)) == dump_scenario(generate_scenario(p, 42))
    assert dump_scenario(generate_scenario(p, 42)) != dump_scenario(generate_scenario(p, 43))


def test_case2_angles_stay_acute():
    p = GeneratorParams(n_uavs=8, n_vehicles=8, theta_range=case_theta_range(2))
    s = generate_scenario(p, 9)
    assert (s.geoms <= math.pi / 2).all()


def test_trip_lengths_in_range():
    p = GeneratorParams(n_uavs=50, n_vehicles=1, x_max=20.0)
    s = generate_scenario(p, 3)
    assert all(0.0 < t.x <= 20.0 for t in s.tasks)


def test_deadline_factor_applied():
    p = GeneratorParams(n_uavs=5, n_vehicles=2, deadline_factor=1.5)
    s = generate_scenario(p, 4)
    for t in s.tasks:
        assert t.deadline == pytest.approx(1.5 * t.x / t.u)


def test_per_vehicle_sampling_hook():
    p = GeneratorParams(n_uavs=2, n_vehicles=30, v_range=(20, 60), gamma_range=(0.0, 0.5))
    s = generate_scenario(p, 5)
    vs = {o.v for o in s.offers}
    assert len(vs) > 1
    assert all(20 <= o.v <= 60 and 0 <= o.gamma <= 0.5 for o in s.offers)


def test_trial_ordering_invariant():
    p = GeneratorParams(n_uavs=20, n_vehicles=20, theta_range=case_theta_range(1))
    for t in range(20):
        r = run_trial(generate_scenario(p, derive_trial_seed(7, 20, t)))
        assert r.total_msa <= r.total_greedy + 1e-9
        assert r.total_greedy <= r.total_direct + 1e-9


def test_all_vehicles_ineligible_means_no_saving():
    # vehicles far slower than the ride-only threshold
    p = GeneratorParams(n_uavs=5, n_vehicles=5, v=5.0, gamma=0.0, omega=0.8)
    s = generate_scenario(p, 11)
    r = run_trial(s)
    assert r.saving_msa == 0.0
    assert r.total_msa == r.total_direct


def test_single_pair_trial():
    p = GeneratorParams(n_uavs=1, n_vehicles=1, theta_range=(0.1, 0.1))
    s = generate_scenario(p, 13)
    r = run_trial(s)
    assert r.total_msa == pytest.approx(r.total_direct - r.saving_msa)
    assert r.saving_msa > 0


def test_experiment_single_trial_equals_trial():
    p = GeneratorParams(n_uavs=4, n_vehicles=6)
    rows = run_experiment(p, 1, [4], master_seed=21)
    s = generate_scenario(
        GeneratorParams(n_uavs=4, n_vehicles=6), derive_trial_seed(21, 4, 0)
    )
    r = run_trial(s)
    assert rows[0].mean_msa == r.total_msa
    assert rows[0].std_msa == 0.0
    assert rows[0].n_trials == 1


def test_acute_case_saves_at_least_as_much():
    # restricting deviations to [0, pi/2] makes more vehicles usable
    counts = [10]
    p1 = GeneratorParams(n_uavs=0, n_vehicles=10, theta_range=case_theta_range(1))
    p2 = GeneratorParams(n_uavs=0, n_vehicles=10, theta_range=case_theta_range(2))
    r1 = run_experiment(p1, 60, counts, master_seed=17)[0]
    r2 = run_experiment(p2, 60, counts, master_seed=17)[0]
    assert r2.mean_saving_msa >= r1.mean_saving_msa


def test_direct_total_grows_linearly():
    # mean direct consumption ~ I * (x_max/2) / u
    p = GeneratorParams(n_uavs=0, n_vehicles=5, x_max=20.0, u=60.0)
    rows = run_experiment(p, 100, [10, 20], master_seed=77)
    for row in rows:
        expectation = row.uav_count * (20.0 / 2) / 60.0
        assert row.mean_direct == pytest.approx(expectation, rel=0.05)


def test_scaling_doubles_direct_and_interior_consumption():
    p = GeneratorParams(n_uavs=6, n_vehicles=6, theta_range=case_theta_range(2))
    s = generate_scenario(p, 123)
    doubled = scale_scenario(s, 2.0)
    r1, r2 = run_trial(s), run_trial(doubled)
    assert r2.total_direct == 2.0 * r1.total_direct
    assert r2.saving_msa == pytest.approx(2.0 * r1.saving_msa, rel=1e-12)


def test_scaling_preserves_vehicle_choice():
    p = GeneratorParams(n_uavs=5, n_vehicles=7, theta_range=case_theta_range(1))
    s = generate_scenario(p, 31)
    doubled = scale_scenario(s, 2.0)
    for i, task in enumerate(s.tasks):
        offers = list(zip(s.offers, map(PairGeometry, s.geoms[i].tolist())))
        idx1, _ = select_vehicle(s.config, task, offers)
        doubled_offers = list(zip(doubled.offers, map(PairGeometry, doubled.geoms[i].tolist())))
        idx2, _ = select_vehicle(s.config, doubled.tasks[i], doubled_offers)
        assert idx1 == idx2


# -------------------------------------------------------------------- sweeps


def test_speed_sweep_crosses_baseline_at_threshold():
    header, rows = sweep_curves("speed", x=5.0, u=60.0, omega=0.8, v_min=4.0, v_max=20.0, points=17)
    assert header == ["v", "value"]
    baseline = 5.0 / 60.0
    for v, c in rows:
        if v <= 12.0:
            assert c == pytest.approx(baseline, abs=1e-9)
        else:
            assert c < baseline


def test_gamma_sweep_zero_rate_equals_ride_only():
    _, rows = sweep_curves("gamma", x=5.0, u=60.0, v=30.0, omega=0.3, theta=0.2, points=7)
    g0 = rows[0]
    assert g0[0] == 0.0
    _, speed_rows = sweep_curves(
        "speed", x=5.0, u=60.0, omega=0.3, theta=0.2, gamma=0.0, v_min=30.0, v_max=30.0, points=1
    )
    assert g0[1] == pytest.approx(speed_rows[0][1], abs=1e-12)


def test_gamma_sweep_monotone_nonincreasing():
    _, rows = sweep_curves("gamma", points=25)
    values = [c for _, c in rows]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_gamma_sweep_strictly_decreases_where_charging_pays():
    # At the default omega = 0.3 no rate on the default grid beats x/u, so
    # the two tests above see a flat line; at omega = 0.8 every rate does.
    _, rows = sweep_curves("gamma", omega=0.8, theta=0.3)
    values = [c for _, c in rows]
    assert len(values) == 121
    assert all(c < 5.0 / 60.0 for c in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    _, speed_rows = sweep_curves(
        "speed", omega=0.8, theta=0.3, gamma=0.0, v_min=30.0, v_max=30.0, points=1
    )
    assert values[0] == speed_rows[0][1]


def test_surface_sweep_slower_vehicle_can_win():
    header, rows = sweep_curves(
        "surface", x=5.0, u=60.0, omega=0.8, v_min=20.0, v_max=80.0,
        v_points=13, gamma_min=0.0, gamma_max=0.5, gamma_points=6,
    )
    assert header == ["v", "gamma", "value"]
    by_gamma = {}
    for v, g, c in rows:
        by_gamma.setdefault(g, []).append((v, c))
    # no charging: the fastest vehicle wins
    no_charge = min(by_gamma[0.0], key=lambda t: t[1])
    assert no_charge[0] == 80.0
    # strong charging: a slower vehicle wins
    strong = min(by_gamma[0.5], key=lambda t: t[1])
    assert strong[0] < 80.0
    # for gamma = 0, consumption strictly decreases with speed
    vals = [c for _, c in sorted(by_gamma[0.0])]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_battery_sweep_shows_three_regimes():
    header, rows = sweep_curves(
        "battery", x=5.0, u=60.0, v=30.0, omega=0.8, gamma=0.3,
        delta_e_min=0.0, delta_e_max=0.2, points=41,
    )
    assert header == ["delta_e", "value"]
    cfg = PlannerConfig(omega=0.8)
    task = UavTask(x=5.0, u=60.0)
    from uavhitch import VehicleOffer, PairGeometry, plan_pair

    ho = plan_pair(cfg, task, VehicleOffer(v=30.0), PairGeometry(math.pi / 4))
    full = plan_pair(cfg, task, VehicleOffer(v=30.0, gamma=0.3), PairGeometry(math.pi / 4))
    ys = dict(rows)
    assert ys[0.0] == pytest.approx(ho.y_star, rel=1e-9)  # no headroom: ride-only optimum
    assert ys[0.2] == pytest.approx(full.y_star, rel=1e-9)  # ample headroom: full optimum
    # in between the riding distance is monotone nondecreasing in headroom
    values = [y for _, y in rows]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "grid", [{}, {"delta_e_max": 0.2, "points": 201}], ids=["default", "figure-script"]
)
def test_battery_sweep_plans_the_exact_headroom(grid):
    from uavhitch import VehicleOffer, PairGeometry, plan_pair

    _, rows = sweep_curves("battery", **grid)
    cfg = PlannerConfig(omega=0.8)
    offer, geom = VehicleOffer(v=30.0, gamma=0.3), PairGeometry(math.pi / 4)
    for delta_e, y_star in rows:
        # 2h - h is exact in binary floating point; h = 0 is a full battery
        capacity, level = (2.0 * delta_e, delta_e) if delta_e > 0.0 else (1.0, 1.0)
        task = UavTask(x=5.0, u=60.0, battery_capacity=capacity, battery_level=level)
        assert task.battery_headroom == delta_e
        assert y_star == plan_pair(cfg, task, offer, geom).y_star, delta_e


def test_sweep_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError):
        sweep_curves("nope")
    with pytest.raises(ValueError):
        sweep_curves("speed", bogus=1.0)


# ------------------------------------------------------------ stacked trials


def per_trial_experiment(params, n_trials, uav_counts, master_seed, on_scenario=None):
    """``run_experiment`` one trial at a time: draw, show, build and match
    each trial alone, then aggregate as the experiment does."""
    import uavhitch.simlab
    from uavhitch.simlab import ExperimentRow, _mean, _sample_std

    rows = []
    for count in uav_counts:
        p = replace(params, n_uavs=count)
        reports = []
        for t in range(n_trials):
            s = uavhitch.simlab.generate_scenario(p, derive_trial_seed(master_seed, count, t))
            if on_scenario is not None:
                on_scenario(count, t, s)
            reports.append(run_trial(s))
        totals = [r.total_msa for r in reports]
        rows.append(ExperimentRow(
            uav_count=count,
            n_trials=n_trials,
            mean_direct=_mean([r.total_direct for r in reports]),
            mean_greedy=_mean([r.total_greedy for r in reports]),
            mean_msa=_mean(totals),
            std_msa=_sample_std(totals),
            mean_saving_msa=_mean([r.saving_msa for r in reports]),
            mean_saving_greedy=_mean([r.saving_greedy for r in reports]),
            mean_iterations=_mean([float(r.iterations) for r in reports]),
        ))
    return rows


def build_sizes(monkeypatch):
    """The UAV count of every saving-matrix build the experiment makes."""
    import uavhitch.simlab

    sizes = []
    build = uavhitch.simlab.build_saving_matrix

    def counting(cfg, tasks, offers, theta, limited=False):
        sizes.append(len(tasks))
        return build(cfg, tasks, offers, theta, limited)

    monkeypatch.setattr(uavhitch.simlab, "build_saving_matrix", counting)
    return sizes


# Five vehicles and counts [2, 40]: the largest trial has 200 pairs, so the
# ten 2-UAV trials are one stack of 20 rows and each 40-UAV trial its own.
STACKING_CASES = {
    "default": ({}, [20] + [40] * 10),
    "deadline_factor": ({"deadline_factor": 1.2, "theta_range": (0.0, 1.0)}, [20] + [40] * 10),
    # Seats of the stack: min(3, 20) = 3; of each 2-UAV trial: 2.
    "capacity_3": ({"capacity": 3, "theta_range": (0.0, 0.8)}, [20] + [40] * 10),
    # Each trial draws its own vehicles, so no two trials share a build.
    "v_range": ({"v_range": (30.0, 70.0)}, [2] * 10 + [40] * 10),
}


def matched_matrices(monkeypatch):
    """Each matrix ``msa_match`` is given: its UAVs, seats and savings."""
    import uavhitch.simlab

    seen = []
    match = uavhitch.simlab.msa_match

    def recording(m):
        seen.append((m.n_uavs, m.seats, m.saving.tobytes()))
        return match(m)

    monkeypatch.setattr(uavhitch.simlab, "msa_match", recording)
    return seen


@pytest.mark.parametrize("case", STACKING_CASES)
def test_stacked_trials_give_the_per_trial_bits(case, monkeypatch):
    extra, expected_sizes = STACKING_CASES[case]
    params = GeneratorParams(n_uavs=0, n_vehicles=5, **extra)
    want_matrices = matched_matrices(monkeypatch)
    want = per_trial_experiment(params, 10, [2, 40], master_seed=3)
    monkeypatch.undo()
    got_matrices = matched_matrices(monkeypatch)
    sizes = build_sizes(monkeypatch)
    got = run_experiment(params, 10, [2, 40], master_seed=3)
    assert sizes == expected_sizes
    assert got_matrices == want_matrices  # each trial's own savings and seats
    assert repr(got) == repr(want)  # repr tells every float bit but NaN's


def test_a_stack_of_one_and_a_stack_of_all_give_the_same_bytes(monkeypatch):
    from uavhitch.scenario_io import csv_text
    from uavhitch.simlab import EXPERIMENT_CSV_HEADER

    params = GeneratorParams(n_uavs=0, n_vehicles=4, theta_range=case_theta_range(2))
    texts = []
    # Alone, the 3-UAV trials are the largest, one per build; beside the
    # 12-UAV ones, all four fit in one build of 12 rows.
    for counts, want_sizes in (([3], [3] * 4), ([3, 12], [12] + [12] * 4)):
        sizes = build_sizes(monkeypatch)
        rows = run_experiment(params, 4, counts, master_seed=5)
        assert sizes == want_sizes
        texts.append(csv_text(EXPERIMENT_CSV_HEADER, [rows[0].as_csv_row()]))
    assert texts[0] == texts[1]


def test_a_failing_stack_names_the_uav_in_its_own_trial(monkeypatch):
    # Vehicles charge at gamma = 1: a UAV flying 60 km/h has a finite
    # optimum on them, one flying 90 km/h has none. Trial 1's third UAV
    # flies 90 km/h, so the stack of all four 3-UAV trials fails to build;
    # planned again one at a time, trials 0 and 1 are shown and the error
    # names UAV 2 of trial 1, not row 5 of the stack.
    import uavhitch.simlab

    draw = uavhitch.simlab.generate_scenario

    def fast_uav(params, seed):
        s = draw(params, seed)
        if params.n_uavs == 3 and seed == derive_trial_seed(0, 3, 1):
            tasks = list(s.tasks)
            tasks[2] = UavTask(x=tasks[2].x, u=90.0)
            s = Scenario(tasks=tasks, offers=s.offers, geoms=s.geoms, config=s.config)
        return s

    monkeypatch.setattr(uavhitch.simlab, "generate_scenario", fast_uav)
    params = GeneratorParams(n_uavs=0, n_vehicles=4, gamma=1.0)
    outcomes = []
    for experiment in (run_experiment, per_trial_experiment):
        seen = []
        with pytest.raises(ValueError) as info:
            experiment(params, 4, [3, 12], 0, lambda c, t, s: seen.append((c, t)))
        outcomes.append((seen, str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ([(3, 0), (3, 1)], f"uav 2, vehicle 0: {UNBOUNDED_MESSAGE}")


def test_a_failed_draw_comes_after_the_trials_drawn_before_it(monkeypatch):
    # x = x_max * (1 - r) rounds to 0 for about half the draws when x_max is
    # the smallest subnormal. At master seed 8 the fourth 1-UAV trial is the
    # first to draw a zero trip; the three before it, which would share its
    # build, are shown and matched first.
    params = GeneratorParams(n_uavs=0, n_vehicles=2, x_max=5e-324)
    outcomes = []
    for experiment in (run_experiment, per_trial_experiment):
        seen = []
        with pytest.raises(ValueError) as info:
            experiment(params, 4, [1, 4], 8, lambda c, t, s: seen.append((c, t)))
        outcomes.append((seen, str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ([(1, 0), (1, 1), (1, 2)], "distance x must be positive and finite, got 0.0")

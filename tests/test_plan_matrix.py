"""Differential tests of the array planner against the scalar reference.

``plan_matrix``, the saving-matrix build and ``plan_pair`` must give
the same bits as ``oracles.scalar_plan_pair`` (the scalar decision chain,
which never calls ``plan_matrix``) on every pair: every plan field (saving,
y*, T, E, C, binding, swap flag) is compared through ``repr``, which prints
a float's shortest round-trip form, so any change of a bit shows. The
array planner covers every branch (deadlines, finite batteries under the
limited model, swaps), so the build never calls ``plan_pair``: it names
the first pair with no finite optimum from ``plan_matrix``'s flags.
"""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    matched_columns,
    random_instance,
    scalar_battery_swap_plan,
    scalar_eligibility,
    scalar_evaluate,
    scalar_max_hitch_distance,
    scalar_optimal_distance,
    scalar_optimal_distance_limited,
    scalar_plan_pair,
)
from test_output_bytes import write_boundary_scenario, write_mixed_scenario

import uavhitch.matching as matching
import uavhitch.planner as planner
from uavhitch import (
    GeneratorParams,
    PairGeometry,
    PlannerConfig,
    SavingMatrix,
    UavTask,
    UnboundedHitchError,
    VehicleOffer,
    brute_force_match,
    build_saving_matrix,
    consumption,
    eligibility,
    energy,
    flight_leg,
    generate_scenario,
    greedy_match,
    max_hitch_distance,
    msa_match,
    plan_matrix,
    plan_pair,
    select_vehicle,
    travel_time,
)
from uavhitch.cli import main
from uavhitch.scenario_io import load_scenario, save_scenario

REGIMES = ["ho", "charging", "pi", "deadline", "battery"]
# The drawn charging rate, ride-only and battery swap.
GAMMAS = {"drawn": None, "zero": 0.0, "swap": math.inf}


def reference(cfg, tasks, offers, theta, limited):
    """The scalar reference's repr of every pair, or its
    UnboundedHitchError message."""
    out = []
    for task, row in zip(tasks, np.asarray(theta).tolist()):
        line = []
        for offer, t in zip(offers, row):
            try:
                line.append(repr(scalar_plan_pair(cfg, task, offer, PairGeometry(t), limited)))
            except UnboundedHitchError as exc:
                line.append(exc)
        out.append(line)
    return out


def count_plan_pair(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return plan_pair(*args, **kwargs)

    monkeypatch.setattr(planner, "plan_pair", counted)
    return calls


def test_matching_has_no_plan_pair():
    assert not hasattr(matching, "plan_pair")
    assert not hasattr(matching, "PairGeometry")


def assert_build_matches(cfg, tasks, offers, theta, limited) -> bool:
    """Check build_saving_matrix against the reference; True if it built."""
    ref = reference(cfg, tasks, offers, theta, limited)
    bad = [(i, j) for i, line in enumerate(ref) for j, r in enumerate(line)
           if isinstance(r, Exception)]
    if bad:
        i, j = bad[0]
        with pytest.raises(UnboundedHitchError) as info:
            build_saving_matrix(cfg, tasks, offers, theta, limited)
        assert str(info.value) == f"uav {i}, vehicle {j}: {ref[i][j]}"
        return False
    m = build_saving_matrix(cfg, tasks, offers, theta, limited)
    assert len(m.plans) == len(tasks)
    for i, row in enumerate(m.plans):
        assert len(row) == m.n_vehicles
        for col, orig in enumerate(m.column_origin):
            plan = row[col]
            assert repr(plan) == ref[i][orig]
            assert repr(float(m.weights[i, col])) == repr(plan.saving)
    return True


def assert_kernel_matches(cfg, x, u, v, gamma, theta) -> None:
    """Check plan_matrix on an I x J grid against the reference with no
    deadline and an unbounded battery."""
    tasks = [UavTask(float(a), float(b)) for a, b in zip(x, u)]
    offers = [VehicleOffer(float(a), float(b)) for a, b in zip(v, gamma)]
    assert_plan_matrix_matches(cfg, tasks, offers, theta, False)


def assert_plan_matrix_matches(cfg, tasks, offers, theta, limited) -> None:
    """Check plan_matrix, with per-UAV deadlines, on an I x J grid against
    the reference: every field of every pair, and which pairs have no finite
    optimum. The limited model is each task's battery headroom, the
    unbounded one an infinite headroom."""
    theta = np.asarray(theta, dtype=np.float64)
    arrays = plan_matrix(
        cfg,
        np.array([[t.x] for t in tasks]),
        np.array([[t.u] for t in tasks]),
        np.array([o.v for o in offers]),
        np.array([o.gamma for o in offers]),
        theta,
        np.array([[t.deadline] for t in tasks]),
        np.array([[t.battery_headroom if limited else math.inf] for t in tasks]),
    )
    assert arrays.saving.shape == theta.shape
    ref = reference(cfg, tasks, offers, theta, limited)
    for i, line in enumerate(ref):
        for j, want in enumerate(line):
            assert arrays.unbounded[i, j] == isinstance(want, Exception), (i, j)
            if not arrays.unbounded[i, j]:
                assert repr(arrays.plan((i, j))) == want, (i, j)


def outcome(entry, *args) -> object:
    """repr of what an entry returns, or the type and message it raised."""
    try:
        return repr(entry(*args))
    except ValueError as exc:
        return type(exc), str(exc)


def scalar_select_vehicle(cfg, task, offers):
    """select_vehicle's rule on the reference's plans at the task's own
    headroom: the lowest consumption, the lowest offer index on a tie."""
    plans = [scalar_plan_pair(cfg, task, offer, geom, True) for offer, geom in offers]
    best = min(range(len(plans)), key=lambda i: plans[i].consumption)
    return best, plans[best]


def assert_entries_match(cfg, task, offer, geom) -> None:
    """Check plan_pair against every scalar reference that applies to the
    pair: the plan, or the exception's type and message. It plans at the
    task's own headroom, which is the reference's limited model; on an
    unbounded battery that is also the unbounded model, and on a swap
    offer the swap plan."""
    args = (cfg, task, offer, geom)
    got = outcome(plan_pair, *args)
    assert got == outcome(scalar_plan_pair, *args, True)
    assert got == outcome(scalar_optimal_distance_limited, *args)
    if math.isinf(task.battery_headroom):
        assert got == outcome(scalar_plan_pair, *args, False)
        if math.isfinite(offer.gamma):
            assert got == outcome(scalar_optimal_distance, *args)
    if math.isinf(offer.gamma):
        assert got == outcome(scalar_battery_swap_plan, *args)


def evaluated(k, *args):
    """Component k of the reference's (T, E, C)."""
    return scalar_evaluate(*args)[k]


def assert_helpers_match(cfg, task, offer, geom) -> None:
    """Check the one-pair helpers against the reference by repr, or by the
    type and message of what they raise: eligibility, the deadline distance
    and the four evaluators, from a negative riding distance to past the
    destination, and NaN and infinite ones. ``energy`` and ``consumption``
    cap the charge at the task's headroom; an infinite one is also the
    reference's uncapped path."""
    args = (task, offer, geom)
    assert outcome(eligibility, cfg, *args) == outcome(scalar_eligibility, cfg, *args, offer.gamma)
    assert outcome(max_hitch_distance, *args) == outcome(scalar_max_hitch_distance, *args)
    unit = (UavTask(task.x, 1.0), VehicleOffer(offer.v), geom)  # E(y) = F(y) at u = 1, gamma = 0
    headroom = task.battery_headroom
    caps = (headroom, None) if math.isinf(headroom) else (headroom,)
    for y in (-1e-12, 0.0, 0.5 * task.x, task.x, 3.0 * task.x, math.nan, math.inf):
        if 0.0 <= y < math.inf:
            want = outcome(evaluated, 1, *unit, y, None)
            assert outcome(flight_leg, task.x, geom.theta, y) == want
        assert outcome(travel_time, *args, y) == outcome(evaluated, 0, *args, y, 0.0)
        for cap in caps:
            assert outcome(energy, *args, y) == outcome(evaluated, 1, *args, y, cap)
            want = outcome(evaluated, 2, *args, y, cap, cfg.omega)
            assert outcome(consumption, cfg, *args, y) == want


def assert_selection_matches(cfg, task, offers) -> None:
    """Check select_vehicle against the reference's rule, with the offers'
    swap versions and a copy of the first offer (an exact tie) added."""
    swaps = [(replace(offer, gamma=math.inf), geom) for offer, geom in offers]
    offers = [*offers, *swaps, offers[0]]
    args = (cfg, task, offers)
    assert outcome(select_vehicle, *args) == outcome(scalar_select_vehicle, *args)


@pytest.mark.parametrize("regime", REGIMES)
def test_scalar_reference_never_calls_the_kernel(regime, monkeypatch):
    def kernel(name):
        def called(*args, **kwargs):
            raise AssertionError(f"the reference called {name}")

        return called

    for name in ("plan_matrix", "_eligible", "_max_hitch", "_objective"):
        monkeypatch.setattr(planner, name, kernel(name))
    cfg, task = PlannerConfig(), UavTask(5.0, 60.0, deadline=0.2)
    offer, geom = VehicleOffer(40.0), PairGeometry(0.1)
    for name, call in (
        ("plan_matrix", lambda: plan_pair(cfg, task, offer, geom)),
        ("_eligible", lambda: eligibility(cfg, task, offer, geom)),
        ("_max_hitch", lambda: max_hitch_distance(task, offer, geom)),
        ("_objective", lambda: consumption(cfg, task, offer, geom, 1.0)),
    ):
        with pytest.raises(AssertionError, match=f"the reference called {name}"):
            call()
    rng = random.Random(f"reference-{regime}")
    for _ in range(200):
        cfg, task, offer, geom, limited = random_instance(rng, regime)
        for gamma in GAMMAS.values():
            drawn = offer if gamma is None else replace(offer, gamma=gamma)
            for model in (False, True):
                try:
                    scalar_plan_pair(cfg, task, drawn, geom, model)
                except UnboundedHitchError:
                    pass


@pytest.mark.parametrize("regime", REGIMES)
def test_each_random_instance_matches_plan_pair(regime, monkeypatch):
    rng = random.Random(REGIMES.index(regime))
    calls = count_plan_pair(monkeypatch)
    for _ in range(300):
        cfg, task, offer, geom, limited = random_instance(rng, regime)
        assert assert_build_matches(cfg, [task], [offer], [[geom.theta]], limited)
        if math.isinf(task.deadline):
            x, u = np.array([task.x]), np.array([task.u])
            v, gamma = np.array([offer.v]), np.array([offer.gamma])
            assert_kernel_matches(cfg, x, u, v, gamma, np.array([[geom.theta]]))
    assert calls[0] == 0


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
@pytest.mark.parametrize("gamma", list(GAMMAS))
@pytest.mark.parametrize("regime", REGIMES)
def test_plan_matrix_matches_plan_pair_on_random_instances(regime, gamma, limited):
    rng = random.Random(f"{regime}-{gamma}-{limited}")
    for _ in range(150):
        cfg, task, offer, geom, _ = random_instance(rng, regime)
        if not limited:
            task = replace(task, battery_capacity=math.inf)
        if GAMMAS[gamma] is not None:
            offer = replace(offer, gamma=GAMMAS[gamma])
        assert_plan_matrix_matches(cfg, [task], [offer], [[geom.theta]], limited)
        assert_entries_match(cfg, task, offer, geom)
        assert_selection_matches(cfg, task, [(offer, geom)])
        assert_helpers_match(cfg, task, offer, geom)


@pytest.mark.parametrize("regime", REGIMES)
def test_crossed_random_instances_match_plan_pair(regime, monkeypatch):
    # Every UAV of a regime's draws against every vehicle of them, under
    # the first draw's weighting: heterogeneous u, v and gamma in one grid.
    rng = random.Random(1000 + REGIMES.index(regime))
    calls = count_plan_pair(monkeypatch)
    built = 0
    for _ in range(6):
        draws = [random_instance(rng, regime) for _ in range(12)]
        cfg, limited = draws[0][0], draws[0][4]
        tasks = [d[1] for d in draws]
        offers = [d[2] for d in draws]
        theta = [[rng.uniform(0.0, math.pi) for _ in offers] for _ in tasks]
        for k, d in enumerate(draws):
            theta[k][k] = d[3].theta
        calls[0] = 0
        built += assert_build_matches(cfg, tasks, offers, theta, limited)
        assert calls[0] == 0
        assert_plan_matrix_matches(cfg, tasks, offers, theta, limited)
        for task, row in zip(tasks, theta):
            pairs = [(offer, PairGeometry(t)) for offer, t in zip(offers, row)]
            assert_selection_matches(cfg, task, pairs)
    assert built > 0


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
def test_boundary_scenario_matches_plan_pair(tmp_path, limited):
    # theta = phi - k*tol at the charging and ride-only threshold angles.
    path = tmp_path / "boundary.json"
    write_boundary_scenario(path)
    s = load_scenario(str(path))
    # The threshold-angle-pi vehicles raise without a deadline; the first
    # raising pair is checked on the full scenario, the bits without them.
    assert not assert_build_matches(s.config, s.tasks, s.offers, s.geoms, limited)
    ref = reference(s.config, s.tasks, s.offers, s.geoms, limited)
    keep = [j for j in range(len(s.offers)) if all(isinstance(r[j], str) for r in ref)]
    assert len(keep) == len(s.offers) - 2
    offers = [s.offers[j] for j in keep]
    assert assert_build_matches(s.config, s.tasks, offers, s.geoms[:, keep], limited)
    assert_plan_matrix_matches(s.config, s.tasks, s.offers, s.geoms, limited)

    finite = [j for j, offer in enumerate(s.offers) if math.isfinite(offer.gamma)]
    assert_kernel_matches(
        s.config,
        np.array([t.x for t in s.tasks]),
        np.array([t.u for t in s.tasks]),
        np.array([s.offers[j].v for j in finite]),
        np.array([s.offers[j].gamma for j in finite]),
        s.geoms[:, finite],
    )


@pytest.mark.parametrize("omega", [0.8, 0.5])
def test_rate_boundaries_match_plan_pair(omega):
    # Charging rates k*tol around the eligibility precondition
    # omega*gamma = 1 - omega - v/u + tol and around the threshold-angle-pi
    # bound omega*gamma = 1 - omega + v/u, at angles from 0 to near pi.
    cfg, u, v = PlannerConfig(omega=omega), 60.0, 0.1 * 60.0
    low, high = 1.0 - omega - v / u + cfg.tol, 1.0 - omega + v / u
    steps = [-10.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0]
    gamma = np.array(
        [(low + k * cfg.tol) / omega for k in steps]
        + [(high + k * 1e-15) / omega for k in steps]
    )
    theta = np.array([0.0, 1e-9, 1e-6, 1e-4, 1e-2, 1.0, 3.0, math.pi])
    x = np.array([0.5, 7.0, 19.0])
    assert_kernel_matches(
        cfg,
        np.repeat(x, len(theta)),
        np.full(len(x) * len(theta), u),
        np.full(len(gamma), v),
        gamma,
        np.tile(theta, len(x))[:, None] + np.zeros(len(gamma)),
    )


@pytest.mark.parametrize(
    "omega, u, v, gamma",
    [
        (1.0, 20.736395084350796, 71.09253941916165, 3.428394334211605),
        (0.8, 34.87250127157742, 79.44075591320488, 3.097542942738111),
        (1.0, 88.26303603322853, 41.01702297632021, 0.4647134839195704),
    ],
)
def test_threshold_angle_pi_by_rounding_matches_plan_pair(omega, u, v, gamma):
    # omega*gamma falls just short of 1 - omega + v/u, yet cos(phi) rounds
    # to -1, so the threshold angle is acos(-1) = pi after the angle test.
    assert omega * gamma < 1.0 - omega + v / u
    assert (1.0 - omega - omega * gamma) * u / v == -1.0
    theta = np.array([0.0, 1.0, math.pi - 2e-9, math.pi])
    x = np.array([0.5, 7.0])
    cfg = PlannerConfig(omega=omega)
    arrays = plan_matrix(cfg, x[:, None], u, v, gamma, theta)
    assert arrays.unbounded.sum() == 2 * 3  # all but theta = pi
    assert_kernel_matches(
        cfg,
        np.repeat(x, len(theta)),
        np.full(len(x) * len(theta), u),
        np.array([v]),
        np.array([gamma]),
        np.tile(theta, len(x))[:, None],
    )


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
def test_mixed_scenario_interleaves_both_paths(tmp_path, limited):
    path = tmp_path / "mixed.json"
    write_mixed_scenario(path)
    s = load_scenario(str(path))
    # Without the battery cap the gamma = 5 vehicle has no finite optimum.
    assert assert_build_matches(s.config, s.tasks, s.offers, s.geoms, limited) == limited


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(n_uavs=30, n_vehicles=25, v_range=(5.0, 80.0), gamma_range=(0.0, 0.3)),
        GeneratorParams(n_uavs=25, n_vehicles=30, theta_range=(0.0, math.pi / 2), u=45.0,
                        v_range=(20.0, 70.0), gamma_range=(0.0, 0.3), capacity=3),
        GeneratorParams(n_uavs=20, n_vehicles=20, omega=0.3, v_range=(10.0, 90.0),
                        gamma_range=(0.0, 2.0)),
        GeneratorParams(n_uavs=20, n_vehicles=15, gamma=0.0, v_range=(10.0, 90.0)),
        GeneratorParams(n_uavs=15, n_vehicles=15, v_range=(20.0, 70.0), gamma_range=(0.0, 0.5),
                        deadline_factor=1.2),
    ],
    ids=["case1", "case2_capacity", "low_omega", "ride_only", "deadline"],
)
@pytest.mark.parametrize("seed", [3, 4])
def test_heterogeneous_generated_fleets_match_plan_pair(params, seed):
    s = generate_scenario(params, seed)
    for limited in (False, True):
        assert assert_build_matches(s.config, s.tasks, s.offers, s.geoms, limited)


def matched_plans(m, *results) -> list:
    """``(uav, vehicle, plan)`` of every matched pair of each result, the
    plans read from ``m.plans``; fails if a result matched nothing."""
    out = []
    for r in results:
        columns = matched_columns(m, r)
        assert columns
        out += [(i, r.assignment[i], m.plans[i][c]) for i, c in columns.items()]
    return out


def test_build_and_match_make_no_plan_pair_call_on_kernel_pairs(monkeypatch):
    s = generate_scenario(GeneratorParams(n_uavs=40, n_vehicles=40), 7)
    calls = count_plan_pair(monkeypatch)
    m = build_saving_matrix(s.config, s.tasks, s.offers, s.geoms)
    msa, greedy = msa_match(m), greedy_match(m)
    plans = matched_plans(m, msa, greedy)
    assert calls[0] == 0
    for i, j, plan in plans:
        geom = PairGeometry(float(s.geoms[i, j]))
        assert repr(plan) == repr(scalar_plan_pair(s.config, s.tasks[i], s.offers[j], geom))


def count_pair_geometries(monkeypatch) -> list[int]:
    made = [0]
    check = PairGeometry.__post_init__

    def counted(self):
        made[0] += 1
        check(self)

    monkeypatch.setattr(PairGeometry, "__post_init__", counted)
    return made


def test_theta_stays_an_array_from_generator_and_loader_to_the_matchers(tmp_path, monkeypatch):
    made = count_pair_geometries(monkeypatch)
    s = generate_scenario(GeneratorParams(n_uavs=40, n_vehicles=40), 7)
    path = tmp_path / "scenario.json"
    save_scenario(s, str(path))
    loaded = load_scenario(str(path))
    m = build_saving_matrix(loaded.config, loaded.tasks, loaded.offers, loaded.geoms)
    msa, greedy = msa_match(m), greedy_match(m)
    matched_plans(m, msa, greedy)
    assert made[0] == 0


class UnreadablePlans:
    """Stands in for ``SavingMatrix.plans`` and fails on any access."""

    def __getattribute__(self, name):
        raise AssertionError(f"plans.{name} was read")

    def __getitem__(self, key):
        raise AssertionError(f"plans[{key}] was read")


def mixed_matrix(tmp_path):
    path = tmp_path / "mixed.json"
    write_mixed_scenario(path)
    s = load_scenario(str(path))
    return build_saving_matrix(s.config, s.tasks, s.offers, s.geoms, limited=True)


def capacity_matrix(tmp_path):
    params = GeneratorParams(n_uavs=8, n_vehicles=4, capacity=2, v_range=(20.0, 70.0))
    s = generate_scenario(params, 11)
    return build_saving_matrix(s.config, s.tasks, s.offers, s.geoms)


@pytest.mark.parametrize("solver", [msa_match, greedy_match, brute_force_match],
                         ids=["msa", "greedy", "brute"])
@pytest.mark.parametrize("make_matrix", [mixed_matrix, capacity_matrix],
                         ids=["mixed_limited", "capacity"])
def test_solvers_read_weights_and_never_plans(tmp_path, solver, make_matrix):
    built = make_matrix(tmp_path)
    bare = SavingMatrix(built.saving, built.capacity, tol=built.tol)
    bare.plans = UnreadablePlans()
    expected, got = solver(built), solver(bare)
    assert got.assignment
    assert got.assignment == expected.assignment
    assert got.total_saving.hex() == expected.total_saving.hex()
    assert got.duals == expected.duals
    assert got.iterations == expected.iterations


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
def test_build_makes_no_pair_geometry_and_no_plan_pair_call(tmp_path, monkeypatch, limited):
    path = tmp_path / "mixed.json"
    write_mixed_scenario(path)
    s = load_scenario(str(path))
    calls, made = count_plan_pair(monkeypatch), count_pair_geometries(monkeypatch)
    if limited:
        build_saving_matrix(s.config, s.tasks, s.offers, s.geoms, limited)
    else:
        with pytest.raises(UnboundedHitchError):  # the gamma = 5 vehicle
            build_saving_matrix(s.config, s.tasks, s.offers, s.geoms, limited)
    assert calls[0] == made[0] == 0


def limited_fleet(rng: random.Random, n_uavs: int, n_vehicles: int):
    """(cfg, tasks, offers, theta) of a fleet that reaches every branch:
    deadlines (some exactly the direct time, some unbounded), empty, partial,
    full and unbounded batteries, ride-only, charging, always-eligible and
    swap vehicles, and vehicles as fast as the UAVs (u = v) with angles at
    and next to 0. A UAV with no deadline has a finite battery, so every
    pair has a finite optimum under the limited model."""
    u = 60.0
    tasks = []
    for i in range(n_uavs):
        x = rng.uniform(0.5, 20.0)
        deadline = [math.inf, x / u, (x / u) * rng.uniform(1.0, 1.5)][i % 3]
        capacity = math.inf if i % 6 in (1, 2) else rng.uniform(0.01, 0.5)
        level = 0.0 if math.isinf(capacity) else capacity * rng.choice([0.0, 1.0, rng.random()])
        tasks.append(UavTask(x, u, deadline, capacity, level))
    offers = []
    for j in range(n_vehicles):
        v = u if j % 4 == 0 else rng.uniform(20.0, 70.0)
        gamma = [0.0, rng.uniform(0.0, 1.5), 5.0, math.inf, rng.uniform(0.0, 0.3)][j % 5]
        offers.append(VehicleOffer(v, gamma))
    theta = [[rng.choice([0.0, 1e-12, 1e-6, rng.uniform(0.0, math.pi)]) for _ in offers]
             for _ in tasks]
    return PlannerConfig(omega=rng.uniform(0.5, 1.0)), tasks, offers, theta


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
@pytest.mark.parametrize("seed", range(4))
def test_plan_matrix_matches_plan_pair_on_limited_fleets(seed, limited):
    cfg, tasks, offers, theta = limited_fleet(random.Random(seed), 30, 20)
    assert_plan_matrix_matches(cfg, tasks, offers, theta, limited)


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
def test_plan_matrix_matches_plan_pair_across_blocks(limited):
    cfg, tasks, offers, theta = limited_fleet(random.Random(99), 130, 70)
    assert 2 * planner._BLOCK > len(tasks) * len(offers) > planner._BLOCK
    assert_plan_matrix_matches(cfg, tasks, offers, theta, limited)


@pytest.mark.parametrize("limited", [False, True], ids=["unbounded", "limited"])
def test_plan_matrix_matches_plan_pair_at_equal_speeds_and_direct_deadline(limited):
    # u = v with D = x/u rounded: whether a ride meets D turns on u*D being
    # above x (x = 1, 7.3 at u = 26), exactly x (13, where T is flat at D
    # for theta = 0) or below it (15).
    u = 26.0
    tasks = [UavTask(x, u, x / u, capacity, level)
             for x in (15.0, 1.0, 7.3, 13.0)
             for capacity, level in ((math.inf, 0.0), (0.2, 0.05), (0.2, 0.2))]
    offers = [VehicleOffer(u, gamma) for gamma in (0.0, 0.3, 5.0, math.inf)]
    theta = [[[0.0, 1e-12, 1e-6, 0.5][j] for j in range(len(offers))] for _ in tasks]
    for cfg in (PlannerConfig(), PlannerConfig(omega=0.3)):
        assert_plan_matrix_matches(cfg, tasks, offers, theta, limited)
        flipped = [row[::-1] for row in theta]
        assert_plan_matrix_matches(cfg, tasks, offers, flipped, limited)
        if not limited:  # the helpers plan at each task's headroom: once is enough
            for task in tasks:
                for offer in offers:
                    for t in theta[0]:
                        assert_helpers_match(cfg, task, offer, PairGeometry(t))


def first_unbounded_scenario() -> dict:
    # Pairs in row-major order: UAV 0 has a deadline and UAV 1 a finite
    # battery, so all their pairs have a finite optimum; UAVs 2 and 3 have
    # neither, and vehicle 1 charges so fast that their pairs on it have
    # none.
    return {
        "config": {"omega": 0.8, "tol": 1e-9},
        "uavs": [
            {"x": 5.0, "u": 60.0, "deadline": 0.2},
            {"x": 6.0, "u": 60.0, "battery_capacity": 0.2, "battery_level": 0.05},
            {"x": 7.0, "u": 60.0},
            {"x": 8.0, "u": 60.0},
        ],
        "vehicles": [{"v": 40.0, "gamma": 0.3}, {"v": 40.0, "gamma": 5.0},
                     {"v": 45.0, "gamma": "inf"}],
        "theta": [[0.3, 0.4, 0.5], [0.3, 0.4, 0.5], [0.3, 0.4, 0.5], [0.6, 0.2, 0.1]],
    }


def test_first_unbounded_pair_in_row_major_order_is_named(tmp_path, capsys):
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(first_unbounded_scenario()))
    assert main(["match", str(path), "--limited"]) == 2
    assert capsys.readouterr().err == (
        "error: uav 2, vehicle 1: consumption decreases with distance for this "
        "offer; a bounded deadline is required\n"
    )
    s = load_scenario(str(path))
    assert not assert_build_matches(s.config, s.tasks, s.offers, s.geoms, True)


def test_kernel_ufuncs_match_math(monkeypatch):
    # numpy picks its SIMD code by CPU, so its transcendentals are checked
    # against the C library here rather than trusted. Each ufunc the array
    # planner calls must agree with math on random arguments and on the
    # arguments the planner itself passes, building case-1 fleets and
    # limited fleets with deadlines, swaps and finite batteries.
    ufuncs = {"_sin": math.sin, "_cos": math.cos, "_acos": math.acos, "_hypot": math.hypot,
              "_sqrt": math.sqrt, "_pow": math.pow}
    rng = np.random.default_rng(20211024)
    n = 100_000
    args = {
        "_sin": [(rng.uniform(-2 * math.pi, 2 * math.pi, n),), (rng.uniform(0, math.pi, n),)],
        "_cos": [(rng.uniform(-2 * math.pi, 2 * math.pi, n),), (rng.uniform(0, math.pi, n),)],
        "_acos": [(rng.uniform(-1.0, 1.0, n),)],
        "_hypot": [(rng.uniform(-40.0, 40.0, n), rng.uniform(0.0, 20.0, n))],
        "_sqrt": [(rng.uniform(0.0, 1e4, n),), (rng.uniform(0.0, 1e-6, n),)],
        "_pow": [(np.sin(rng.uniform(0.0, math.pi / 2, n)), np.full(n, 2.0))],
    }

    seen = {name: [] for name in ufuncs}

    def recorder(name, fn):
        def record(*a):
            seen[name].append(np.broadcast_arrays(*(np.array(x, dtype=np.float64) for x in a)))
            return fn(*a)

        return record

    for name in ufuncs:
        monkeypatch.setattr(planner, name, recorder(name, getattr(planner, name)))
    for params in (
        GeneratorParams(n_uavs=200, n_vehicles=40, v_range=(5.0, 80.0), gamma_range=(0.0, 0.3)),
        GeneratorParams(n_uavs=200, n_vehicles=40, theta_range=(0.0, math.pi / 2)),
    ):
        s = generate_scenario(params, 11)
        build_saving_matrix(s.config, s.tasks, s.offers, s.geoms)
    for seed in range(3):
        cfg, tasks, offers, theta = limited_fleet(random.Random(seed), 200, 40)
        build_saving_matrix(cfg, tasks, offers, theta, limited=True)
    monkeypatch.undo()

    for name, fn in ufuncs.items():
        assert seen[name], f"the array planner no longer calls {name}"
        ufunc = getattr(planner, name)
        for a in args[name] + seen[name]:
            got = np.asarray(ufunc(*a), dtype=np.float64)
            want = np.array(list(map(fn, *(x.tolist() for x in a))), dtype=np.float64)
            diff = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            assert diff.size == 0, f"{name} differs from math on {diff.size} of {got.size} inputs"


def test_hypot_matches_math_on_a_million_inputs():
    # Both are correctly rounded here, so they agree bit for bit: half the
    # inputs in the planner's range, half across 600 binades.
    rng = np.random.default_rng(20261019)
    n = 500_000
    a = np.concatenate([rng.uniform(-1000.0, 1000.0, n),
                        np.ldexp(rng.uniform(-2.0, 2.0, n), rng.integers(-300, 301, n))])
    b = np.concatenate([rng.uniform(-1000.0, 1000.0, n),
                        np.ldexp(rng.uniform(-2.0, 2.0, n), rng.integers(-300, 301, n))])
    got = planner._hypot(a, b)
    want = np.array(list(map(math.hypot, a.tolist(), b.tolist())))
    diff = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert diff.size == 0, f"_hypot differs from math.hypot at {diff[:5]}"


def test_hypot_settles_ties_and_special_values():
    # a, b and c = hypot(a, b) are a Pythagorean triple, c odd with 54
    # bits, so c lies halfway between two floats; the tie goes to the one
    # with the even significand, c - 1 (math.hypot gives c + 1). Infinity
    # beats NaN, and subnormal results round once, on their own grid.
    p, q = 90_035_989, 36_757_058
    a, b, c = p * p - q * q, 2 * p * q, p * p + q * q
    assert a * a + b * b == c * c and max(a, b) < 2**53 <= c < 2**54 and c % 2
    tie = float(c - 1)
    assert (c - 1) % 4 == 0 and math.hypot(a, b) == float(c + 1)
    inf, nan, tiny = math.inf, math.nan, 5e-324
    cases = [
        (float(a), float(b), tie), (-float(b), float(a), tie),
        (inf, nan), (nan, -inf), (nan, 1.0), (nan, nan), (-0.0, 0.0), (0.0, -3.0),
        (3.0 * tiny, 4.0 * tiny), (tiny, tiny), (1e308, 1e308), (1.5e308, 1.5e308, inf),
    ]
    x = np.array([case[0] for case in cases])
    y = np.array([case[1] for case in cases])
    want = [case[2] if len(case) == 3 else math.hypot(case[0], case[1]) for case in cases]
    got = planner._hypot(x, y).tolist()
    assert repr(got) == repr(want)


def test_plan_matrix_broadcasts_and_plans_swaps():
    cfg = PlannerConfig()
    arrays = plan_matrix(cfg, 5.0, 60.0, np.array([40.0, 30.0]), 0.3, np.array([[0.2], [0.4]]))
    assert arrays.saving.shape == (2, 2)
    task = UavTask(5.0, 60.0)
    arrays = plan_matrix(cfg, 5.0, 60.0, 40.0, math.inf, np.array([0.2, 2.0]))
    for limited in (False, True):
        for k, theta in enumerate((0.2, 2.0)):
            want = scalar_plan_pair(
                cfg, task, VehicleOffer(40.0, math.inf), PairGeometry(theta), limited
            )
            assert repr(arrays.plan(k)) == repr(want)
    assert arrays.swap.tolist() == [False, True]  # departs at once on the wide angle

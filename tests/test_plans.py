import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavhitch import (
    Binding,
    PairGeometry,
    PlannerConfig,
    UavTask,
    UnboundedHitchError,
    VehicleOffer,
    battery_swap_plan,
    consumption,
    eligibility,
    optimal_distance,
    optimal_distance_ho,
    optimal_distance_limited,
    select_vehicle,
)
from oracles import oracle_min_consumption, random_instance

CFG = PlannerConfig(omega=0.8)
TASK = UavTask(x=5, u=60)


def plan_for(cfg, task, offer, geom, limited):
    if limited:
        return optimal_distance_limited(cfg, task, offer, geom)
    if offer.gamma == 0.0:
        return optimal_distance_ho(cfg, task, offer, geom)
    return optimal_distance(cfg, task, offer, geom)


# ---------------------------------------------------------------- ride-only


def test_full_energy_weight_rides_to_closest_point():
    plan = optimal_distance_ho(PlannerConfig(omega=1.0), TASK, VehicleOffer(v=40), PairGeometry(0.4))
    assert plan.y_star == pytest.approx(5 * math.cos(0.4), rel=1e-12)
    assert plan.binding is Binding.INTERIOR


def test_wide_angle_yields_no_hitch():
    plan = optimal_distance_ho(CFG, TASK, VehicleOffer(v=40), PairGeometry(1.4))
    assert plan.y_star == 0.0
    assert plan.binding is Binding.NO_HITCH
    assert plan.consumption == TASK.direct_time
    assert plan.saving == 0.0


def test_ride_only_interior_plan_matches_analysis():
    plan = optimal_distance_ho(CFG, TASK, VehicleOffer(v=40), PairGeometry(0.5))
    phi = math.acos(0.3)
    assert plan.y_star == pytest.approx(5 * math.cos(0.5) - 5 * math.sin(0.5) / math.tan(phi), rel=1e-9)
    assert plan.consumption == pytest.approx((5 / 60) * math.cos(phi - 0.5), rel=1e-9)
    oracle = oracle_min_consumption(0.8, TASK, VehicleOffer(v=40), PairGeometry(0.5))
    assert plan.consumption == pytest.approx(oracle, abs=1e-6)


def test_ride_only_never_passes_closest_point():
    rng = random.Random(11)
    for _ in range(300):
        cfg, task, offer, geom, _ = random_instance(rng, "ho")
        plan = optimal_distance_ho(cfg, task, offer, geom)
        if plan.y_star > 0.0:
            assert geom.theta < math.pi / 2
            assert plan.y_star <= task.x * math.cos(geom.theta) + 1e-9
        assert plan.saving >= 0.0


# ------------------------------------------------------------ with charging


def test_gamma_zero_plan_identical_to_ride_only():
    rng = random.Random(13)
    for _ in range(300):
        cfg, task, offer, geom, _ = random_instance(rng, "ho")
        assert optimal_distance(cfg, task, offer, geom) == optimal_distance_ho(
            cfg, task, offer, geom
        )


def test_fast_charging_rides_past_closest_point():
    # omega*gamma > 1 - omega: the optimum overshoots x*cos(theta)
    plan = optimal_distance(CFG, TASK, VehicleOffer(v=40, gamma=0.3), PairGeometry(0.5))
    assert plan.y_star > 5 * math.cos(0.5)
    ho = optimal_distance_ho(CFG, TASK, VehicleOffer(v=40), PairGeometry(0.5))
    assert plan.y_star > ho.y_star
    assert plan.consumption < ho.consumption


def test_charging_never_shortens_the_ride():
    # same (theta, v, omega): adding charge can only lengthen the optimum
    rng = random.Random(23)
    for _ in range(300):
        cfg, task, offer, geom, _ = random_instance(rng, "charging")
        if offer.gamma == 0.0:
            continue
        charged = optimal_distance(cfg, task, offer, geom)
        plain = optimal_distance_ho(cfg, task, replace(offer, gamma=0.0), geom)
        if charged.y_star > 0.0 and plain.y_star > 0.0:
            assert charged.y_star >= plain.y_star - 1e-12
            assert charged.consumption <= plain.consumption + 1e-12


def test_charging_interior_against_oracle():
    offer, geom = VehicleOffer(v=40, gamma=0.3), PairGeometry(0.5)
    plan = optimal_distance(CFG, TASK, offer, geom)
    oracle = oracle_min_consumption(0.8, TASK, offer, geom)
    assert plan.consumption == pytest.approx(oracle, abs=1e-6)


def test_always_eligible_without_deadline_is_rejected():
    offer = VehicleOffer(v=40, gamma=1.2)  # omega*gamma = 0.96 >= 0.2 + 2/3
    with pytest.raises(UnboundedHitchError):
        optimal_distance(CFG, TASK, offer, PairGeometry(2.5))


def test_always_eligible_with_deadline_rides_to_the_cap():
    task = UavTask(x=5, u=60, deadline=0.25)
    offer = VehicleOffer(v=40, gamma=1.2)
    plan = optimal_distance(CFG, task, offer, PairGeometry(2.5))
    assert plan.binding is Binding.DEADLINE
    assert plan.total_time == pytest.approx(0.25, abs=1e-9)
    assert plan.saving > 0.0


def test_deadline_caps_interior_optimum():
    task = UavTask(x=5, u=60, deadline=0.12)
    offer, geom = VehicleOffer(v=40, gamma=0.3), PairGeometry(0.5)
    plan = optimal_distance(CFG, task, offer, geom)
    unbounded = optimal_distance(CFG, TASK, offer, geom)
    assert plan.binding is Binding.DEADLINE
    assert plan.y_star < unbounded.y_star
    assert plan.total_time <= 0.12 + 1e-9
    oracle = oracle_min_consumption(0.8, task, offer, geom)
    assert plan.consumption == pytest.approx(oracle, abs=1e-6)


def test_randomized_plans_beat_oracle_grid():
    rng = random.Random(2024)
    for regime in ("ho", "charging", "pi", "deadline", "battery"):
        for _ in range(40):
            cfg, task, offer, geom, limited = random_instance(rng, regime)
            plan = plan_for(cfg, task, offer, geom, limited)
            oracle = oracle_min_consumption(cfg.omega, task, offer, geom, limited, n_grid=2001)
            assert plan.consumption <= oracle + 1e-6 * max(1.0, abs(oracle)), (regime, task, offer, geom)
            if math.isfinite(task.deadline):
                assert plan.total_time <= task.deadline + 1e-9


# ------------------------------------------------------------ battery limit


def test_unbounded_battery_reduces_to_plain_plan():
    rng = random.Random(17)
    for _ in range(200):
        cfg, task, offer, geom, _ = random_instance(rng, "charging")
        plan = optimal_distance_limited(cfg, task, offer, geom)
        assert plan == optimal_distance(cfg, task, offer, geom)


def test_full_battery_reduces_to_ride_only():
    rng = random.Random(19)
    for _ in range(200):
        cfg, task, offer, geom, _ = random_instance(rng, "charging")
        if offer.gamma == 0.0:
            continue
        task = replace(task, battery_capacity=0.7, battery_level=0.7)
        plan = optimal_distance_limited(cfg, task, offer, geom)
        ho = optimal_distance_ho(cfg, task, replace(offer, gamma=0.0), geom)
        assert plan.y_star == ho.y_star
        assert plan.binding == ho.binding
        assert plan.consumption == pytest.approx(ho.consumption, abs=1e-12)


def test_battery_cap_between_optima_binds():
    # pick headroom so the cap falls strictly between the two optima
    offer, geom = VehicleOffer(v=30, gamma=0.3), PairGeometry(math.pi / 4)
    ho = optimal_distance_ho(CFG, TASK, VehicleOffer(v=30), geom)
    full = optimal_distance(CFG, TASK, offer, geom)
    assert ho.y_star < full.y_star
    y_cap = 0.5 * (ho.y_star + full.y_star)
    headroom = y_cap * offer.gamma / offer.v
    task = replace(TASK, battery_capacity=headroom + 0.5, battery_level=0.5)
    plan = optimal_distance_limited(CFG, task, offer, geom)
    assert plan.binding is Binding.BATTERY_FULL
    assert plan.y_star == pytest.approx(y_cap, rel=1e-9)
    oracle = oracle_min_consumption(0.8, task, offer, geom, limited=True)
    assert plan.consumption == pytest.approx(oracle, abs=1e-6)


@st.composite
def helps_at_any_angle(draw, bounded_deadline: bool):
    """A finite battery on a vehicle whose charging pays at any angle (phi = pi)."""
    x, u, v = draw(st.floats(0.5, 20.0)), draw(st.floats(20.0, 100.0)), draw(st.floats(5.0, 80.0))
    omega, theta = draw(st.floats(0.3, 1.0)), draw(st.floats(0.0, math.pi))
    gamma = (1.0 - omega + v / u) / omega * draw(st.floats(1.05, 2.0))
    # Without a deadline the oracle grid spans [0, 3x]: keep the cap distance inside it.
    headroom = draw(st.floats(0.01, 2.5)) * x * gamma / v
    capacity = headroom / (1.0 - draw(st.floats(0.0, 0.9)))
    # A deadline within rounding of the direct time with u = v is ill-conditioned:
    # theta = 1e-12 shrinks the feasible set from [0, x] to {0}, which no float
    # oracle resolves. test_max_hitch checks the theta = 0 corner in closed form.
    deadline = (x / u) * draw(st.floats(1.01, 3.0)) if bounded_deadline else math.inf
    task = UavTask(x=x, u=u, deadline=deadline, battery_capacity=capacity,
                   battery_level=capacity - headroom)
    return PlannerConfig(omega=omega), task, VehicleOffer(v=v, gamma=gamma), PairGeometry(theta)


@pytest.mark.parametrize("bounded_deadline", [False, True], ids=["no_deadline", "deadline"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_limited_plan_at_any_angle_matches_oracle(bounded_deadline, data):
    cfg, task, offer, geom = data.draw(helps_at_any_angle(bounded_deadline))
    assert eligibility(cfg, task, offer, geom).threshold_angle == math.pi
    plan = optimal_distance_limited(cfg, task, offer, geom)
    oracle = oracle_min_consumption(cfg.omega, task, offer, geom, limited=True)
    # criterion 1's tolerance
    assert abs(plan.consumption - oracle) <= 1e-6 * max(task.direct_time, abs(oracle))


def test_gamma_zero_with_finite_battery_falls_through():
    task = replace(TASK, battery_capacity=1.0, battery_level=0.2)
    offer, geom = VehicleOffer(v=40, gamma=0.0), PairGeometry(0.5)
    assert optimal_distance_limited(CFG, task, offer, geom) == optimal_distance_ho(
        CFG, task, offer, geom
    )


# -------------------------------------------------------------- battery swap


def test_swap_continues_riding_when_direction_works():
    offer = VehicleOffer(v=40, gamma=math.inf)
    plan = battery_swap_plan(CFG, TASK, offer, PairGeometry(0.5))
    ho = optimal_distance_ho(CFG, TASK, VehicleOffer(v=40), PairGeometry(0.5))
    assert plan.y_star == ho.y_star
    assert not plan.swap_and_depart


def test_swap_departs_immediately_on_wide_angle():
    offer = VehicleOffer(v=40, gamma=math.inf)
    for theta in (1.4, 2.0, math.pi):
        plan = battery_swap_plan(CFG, TASK, offer, PairGeometry(theta))
        assert plan.y_star == 0.0
        assert plan.swap_and_depart
        assert plan.binding is Binding.NO_HITCH


def test_swap_requires_infinite_rate():
    with pytest.raises(ValueError):
        battery_swap_plan(CFG, TASK, VehicleOffer(v=40, gamma=2.0), PairGeometry(0.5))


# ------------------------------------------------------------- vehicle pick


def test_select_requires_offers():
    with pytest.raises(ValueError):
        select_vehicle(CFG, TASK, [])


def test_select_single_offer():
    offers = [(VehicleOffer(v=40, gamma=0.3), PairGeometry(0.4))]
    idx, plan = select_vehicle(CFG, TASK, offers)
    assert idx == 0
    assert plan == optimal_distance(CFG, TASK, offers[0][0], offers[0][1])


def test_select_prefers_smaller_angle_on_identical_offers():
    offers = [
        (VehicleOffer(v=40), PairGeometry(0.9)),
        (VehicleOffer(v=40), PairGeometry(0.3)),
        (VehicleOffer(v=40), PairGeometry(0.6)),
    ]
    idx, _ = select_vehicle(CFG, TASK, offers)
    assert idx == 1


def test_select_agrees_with_direction_difference_rule():
    # For two interior plans the winner is decided by the sign of
    # (theta_k - theta_l) - (phi_k - phi_l).
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        cfg, task, offer_l, geom_l, _ = random_instance(rng, "charging")
        _, _, offer_k, geom_k, _ = random_instance(rng, "charging")
        task = replace(task, deadline=math.inf)
        plans = []
        for off, g in ((offer_l, geom_l), (offer_k, geom_k)):
            e = eligibility(cfg, task, off, g)
            if not e.eligible or e.threshold_angle == math.pi:
                break
            plans.append((e.threshold_angle, g.theta))
        else:
            idx, _ = select_vehicle(cfg, task, [(offer_l, geom_l), (offer_k, geom_k)])
            (phi_l, th_l), (phi_k, th_k) = plans
            margin = (th_k - th_l) - (phi_k - phi_l)
            if abs(margin) > 1e-9:
                assert idx == (1 if margin < 0 else 0)
            checked += 1


def test_tie_breaks_to_lowest_index():
    offers = [
        (VehicleOffer(v=40), PairGeometry(0.4)),
        (VehicleOffer(v=40), PairGeometry(0.4)),
    ]
    idx, _ = select_vehicle(CFG, TASK, offers)
    assert idx == 0

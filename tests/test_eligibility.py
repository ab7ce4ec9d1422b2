import math

import pytest
from hypothesis import given, strategies as st

from uavhitch import (
    EligibilityReason,
    PairGeometry,
    PlannerConfig,
    UavTask,
    VehicleOffer,
    eligibility,
)

TASK = UavTask(x=5, u=60)


def test_slow_vehicle_rejected():
    e = eligibility(PlannerConfig(omega=0.8), TASK, VehicleOffer(v=12.0), PairGeometry(0.3))
    assert not e.eligible
    assert e.reason is EligibilityReason.SPEED_TOO_LOW
    assert e.threshold_angle is None


def test_speed_threshold_value():
    # A ride-only vehicle pays only above (1 - omega)*u = 12 km/h.
    cfg, geom = PlannerConfig(omega=0.8), PairGeometry(0.0)
    for v in (11.999, 12.0):
        e = eligibility(cfg, TASK, VehicleOffer(v=v), geom)
        assert e.reason is EligibilityReason.SPEED_TOO_LOW, v
    assert eligibility(cfg, TASK, VehicleOffer(v=12.001), geom).eligible


def test_full_energy_weight_threshold_is_right_angle():
    e = eligibility(PlannerConfig(omega=1.0), TASK, VehicleOffer(v=40.0), PairGeometry(0.3))
    assert e.threshold_angle == pytest.approx(math.pi / 2, abs=1e-12)


def test_ride_only_threshold_angle():
    e = eligibility(PlannerConfig(omega=0.8), TASK, VehicleOffer(v=40.0), PairGeometry(0.3))
    assert e.eligible
    assert e.threshold_angle == pytest.approx(math.acos(0.3), abs=1e-9)


def test_angle_too_wide():
    e = eligibility(PlannerConfig(omega=0.8), TASK, VehicleOffer(v=40.0), PairGeometry(1.4))
    assert not e.eligible
    assert e.reason is EligibilityReason.ANGLE_TOO_WIDE
    assert e.threshold_angle is not None


def test_charging_widens_threshold_beyond_right_angle():
    # omega*gamma > 1-omega pushes the threshold past pi/2
    e = eligibility(
        PlannerConfig(omega=0.8), TASK, VehicleOffer(v=40.0, gamma=0.3), PairGeometry(0.3)
    )
    assert e.eligible
    assert e.threshold_angle == pytest.approx(math.acos(-0.06), abs=1e-9)
    assert e.threshold_angle > math.pi / 2


def test_weak_charging_rejected():
    # omega*gamma <= 1 - omega - v/u blocks hitching for any angle
    cfg = PlannerConfig(omega=0.3)
    e = eligibility(cfg, TASK, VehicleOffer(v=6.0, gamma=0.5), PairGeometry(0.0))
    assert not e.eligible
    assert e.reason is EligibilityReason.CHARGE_TOO_LOW


def test_fast_charging_accepts_any_direction():
    gamma = (0.2 + 2 / 3) / 0.8  # boundary of the always-eligible regime
    for g in (gamma, 1.1, 5.0):
        e = eligibility(
            PlannerConfig(omega=0.8), TASK, VehicleOffer(v=40.0, gamma=g), PairGeometry(math.pi)
        )
        assert e.eligible, g
        assert e.threshold_angle == math.pi


def test_gamma_zero_reduces_to_ride_only():
    # The ride-only rule: theta below acos((1 - omega)*u/v).
    cfg = PlannerConfig(omega=0.8)
    phi = math.acos((1.0 - 0.8) * 60.0 / 40.0)
    for theta in (0.0, 0.5, 1.3, 2.0, math.pi):
        e = eligibility(cfg, TASK, VehicleOffer(v=40.0, gamma=0.0), PairGeometry(theta))
        assert e.threshold_angle == phi
        assert e.eligible == (theta < phi - cfg.tol), theta


def test_battery_swap_offer_direction_range():
    e = eligibility(
        PlannerConfig(omega=0.8), TASK, VehicleOffer(v=40.0, gamma=math.inf), PairGeometry(math.pi)
    )
    assert e.eligible and e.threshold_angle == math.pi
    # with omega = 0 charging is worthless and the usual rule applies
    e0 = eligibility(
        PlannerConfig(omega=0.0), TASK, VehicleOffer(v=40.0, gamma=math.inf), PairGeometry(0.1)
    )
    assert not e0.eligible  # v < u and no time gain from riding slower
    # and the charge, with no weight, is not what fails it
    for gamma in (math.inf, 0.3):
        e0 = eligibility(
            PlannerConfig(omega=0.0), TASK, VehicleOffer(v=40.0, gamma=gamma), PairGeometry(2.0)
        )
        assert e0.reason is EligibilityReason.SPEED_TOO_LOW, gamma


@given(
    omega=st.floats(0.05, 1.0),
    u=st.floats(10, 150),
    v=st.floats(1, 150),
    g1=st.floats(0, 3),
    g2=st.floats(0, 3),
)
def test_threshold_nondecreasing_in_gamma(omega, u, v, g1, g2):
    g1, g2 = sorted((g1, g2))
    cfg = PlannerConfig(omega=omega)
    task = UavTask(x=5, u=u)
    geom = PairGeometry(0.0)
    lo = eligibility(cfg, task, VehicleOffer(v=v, gamma=g1), geom).threshold_angle
    hi = eligibility(cfg, task, VehicleOffer(v=v, gamma=g2), geom).threshold_angle
    if lo is not None and hi is not None:
        assert hi >= lo - 1e-12


@given(
    u=st.floats(10, 150),
    v=st.floats(1, 150),
    gamma=st.floats(0, 2),
    o1=st.floats(0.05, 1.0),
    o2=st.floats(0.05, 1.0),
)
def test_threshold_nondecreasing_in_omega(u, v, gamma, o1, o2):
    o1, o2 = sorted((o1, o2))
    task = UavTask(x=5, u=u)
    geom = PairGeometry(0.0)
    lo = eligibility(PlannerConfig(omega=o1), task, VehicleOffer(v=v, gamma=gamma), geom)
    hi = eligibility(PlannerConfig(omega=o2), task, VehicleOffer(v=v, gamma=gamma), geom)
    if lo.threshold_angle is not None and hi.threshold_angle is not None:
        assert hi.threshold_angle >= lo.threshold_angle - 1e-12


@given(omega=st.floats(0, 1), u=st.floats(10, 150), v=st.floats(1, 150), theta=st.floats(0, math.pi))
def test_ride_only_threshold_never_exceeds_right_angle(omega, u, v, theta):
    e = eligibility(
        PlannerConfig(omega=omega), UavTask(x=5, u=u), VehicleOffer(v=v), PairGeometry(theta)
    )
    if e.threshold_angle is not None:
        assert e.threshold_angle <= math.pi / 2 + 1e-12
    if e.eligible:
        assert theta < e.threshold_angle

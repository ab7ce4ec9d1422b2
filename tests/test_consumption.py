import math

import pytest
from hypothesis import given, strategies as st

from uavhitch import (
    PairGeometry,
    PlannerConfig,
    UavTask,
    VehicleOffer,
    consumption,
    energy,
    travel_time,
)

CFG = PlannerConfig(omega=0.8)


def test_travel_time_baseline_is_direct_flight():
    task = UavTask(x=5, u=60)
    assert travel_time(task, VehicleOffer(v=40), PairGeometry(0.0), 0.0) == 5 / 60


def test_travel_time_right_triangle():
    # 3-4-5 triangle: ride 3 km at right angle to a 4 km trip -> 5 km flight.
    task = UavTask(x=4, u=60)
    t = travel_time(task, VehicleOffer(v=40), PairGeometry(math.pi / 2), 3.0)
    assert t == pytest.approx(3 / 40 + 5 / 60, rel=1e-12)


def test_travel_time_oblique():
    # direct evaluation cross-checked against an independent scalar script
    task = UavTask(x=5, u=60)
    t = travel_time(task, VehicleOffer(v=40), PairGeometry(math.pi / 4), 2.0)
    assert t == pytest.approx(0.11424316733290495, rel=1e-12)


def test_negative_distance_rejected():
    task = UavTask(x=5, u=60)
    offer, geom = VehicleOffer(v=40), PairGeometry(0.3)
    with pytest.raises(ValueError):
        travel_time(task, offer, geom, -0.1)
    with pytest.raises(ValueError):
        energy(task, offer, geom, -0.1)
    with pytest.raises(ValueError):
        energy(UavTask(x=5, u=60, battery_capacity=1.0), offer, geom, -1e-12)


@pytest.mark.parametrize("y", [math.nan, math.inf])
def test_non_finite_distance_rejected(y):
    task = UavTask(x=5, u=60)
    offer, geom = VehicleOffer(v=40, gamma=0.3), PairGeometry(0.3)
    for evaluate in (travel_time, energy):
        with pytest.raises(ValueError, match=f"hitch distance y must be finite and >= 0, got {y}"):
            evaluate(task, offer, geom, y)
    with pytest.raises(ValueError, match="hitch distance y"):
        consumption(CFG, task, offer, geom, y)


def test_energy_zero_flight_leg():
    # hitch straight to the destination: nothing left to fly
    task = UavTask(x=5, u=60)
    assert energy(task, VehicleOffer(v=40, gamma=0.0), PairGeometry(0.0), 5.0) == 0.0


def test_energy_at_zero_equals_direct_flight_time():
    task = UavTask(x=5, u=60)
    assert energy(task, VehicleOffer(v=40, gamma=0.3), PairGeometry(1.0), 0.0) == 5 / 60


def test_energy_with_charging():
    task = UavTask(x=4, u=60)
    e = energy(task, VehicleOffer(v=40, gamma=0.3), PairGeometry(math.pi / 2), 3.0)
    assert e == pytest.approx(5 / 60 - 0.3 * 3 / 40, rel=1e-12)


def test_energy_limited_full_battery_matches_no_charging():
    task = UavTask(x=4, u=60, battery_capacity=1.0, battery_level=1.0)
    offer = VehicleOffer(v=40, gamma=0.3)
    geom = PairGeometry(math.pi / 2)
    for y in (0.0, 1.0, 3.0):
        assert energy(task, offer, geom, y) == energy(
            task, VehicleOffer(v=40, gamma=0.0), geom, y
        )


def test_energy_limited_unbounded_battery_matches_energy():
    # A battery the charge never fills gives the unbounded battery's energy.
    task = UavTask(x=4, u=60)
    large = UavTask(x=4, u=60, battery_capacity=1e9)
    offer = VehicleOffer(v=40, gamma=0.3)
    geom = PairGeometry(0.7)
    for y in (0.0, 2.0, 6.0):
        assert energy(large, offer, geom, y) == energy(task, offer, geom, y)


def test_energy_limited_cap_binds():
    task = UavTask(x=4, u=60, battery_capacity=0.51, battery_level=0.5)
    e = energy(task, VehicleOffer(v=40, gamma=0.3), PairGeometry(math.pi / 2), 3.0)
    # (gamma/v)*y = 0.0225 > headroom 0.01, so the cap binds
    assert e == pytest.approx(5 / 60 - 0.01, rel=1e-12)


def test_swap_on_unbounded_battery_has_no_energy_but_has_a_travel_time():
    # A swap offer charges instantly; an infinite battery would absorb an
    # infinite charge, so energy() and consumption() refuse.
    task, swap, geom = UavTask(x=5, u=60), VehicleOffer(v=40, gamma=math.inf), PairGeometry(0.3)
    with pytest.raises(ValueError, match="battery-swap"):
        energy(task, swap, geom, 1.0)
    with pytest.raises(ValueError, match="battery-swap"):
        consumption(CFG, task, swap, geom, 1.0)
    # T does not depend on charging.
    t = travel_time(task, swap, geom, 1.0)
    assert t == 1 / 40 + math.hypot(1 - 5 * math.cos(0.3), 5 * math.sin(0.3)) / 60
    assert t == pytest.approx(0.0925907519741338, rel=1e-15)


def test_swap_on_finite_battery_charges_to_the_headroom():
    task = UavTask(x=5, u=60, battery_capacity=0.4, battery_level=0.1)
    e = energy(task, VehicleOffer(v=40, gamma=math.inf), PairGeometry(0.3), 1.0)
    flight = math.hypot(1 - 5 * math.cos(0.3), 5 * math.sin(0.3)) / 60
    assert e == flight - (0.4 - 0.1)


def test_consumption_pure_energy_weight():
    # omega=1, gamma=0: consumption is just the flight-leg time
    task = UavTask(x=5, u=60)
    cfg = PlannerConfig(omega=1.0)
    got = consumption(cfg, task, VehicleOffer(v=40), PairGeometry(0.6), 2.0)
    leg = math.hypot(2.0 - 5 * math.cos(0.6), 5 * math.sin(0.6))
    assert got == pytest.approx(leg / 60, rel=1e-12)


def test_consumption_pure_time_weight():
    task = UavTask(x=5, u=60)
    cfg = PlannerConfig(omega=0.0)
    offer, geom = VehicleOffer(v=40, gamma=0.3), PairGeometry(0.6)
    assert consumption(cfg, task, offer, geom, 2.0) == pytest.approx(
        travel_time(task, offer, geom, 2.0), rel=1e-12
    )


@pytest.mark.parametrize("omega", [0.0, 0.3, 0.8, 1.0])
def test_consumption_baseline_independent_of_omega(omega):
    task = UavTask(x=7.5, u=50)
    cfg = PlannerConfig(omega=omega)
    got = consumption(cfg, task, VehicleOffer(v=40, gamma=0.3), PairGeometry(1.2), 0.0)
    assert got == pytest.approx(task.direct_time, rel=1e-12)


@given(
    x=st.floats(0.1, 50),
    u=st.floats(1, 200),
    v=st.floats(1, 200),
    gamma=st.floats(0, 5),
    theta=st.floats(0, math.pi),
    y=st.floats(0, 100),
    omega=st.floats(0, 1),
)
def test_consumption_decomposition(x, u, v, gamma, theta, y, omega):
    # C(omega, y) = omega*E(y) + (1-omega)*T(y) to 1e-12
    cfg = PlannerConfig(omega=omega) if omega > 0 else PlannerConfig(omega=0.0)
    task = UavTask(x=x, u=u)
    offer = VehicleOffer(v=v, gamma=gamma)
    geom = PairGeometry(theta)
    lhs = consumption(cfg, task, offer, geom, y)
    rhs = cfg.omega * energy(task, offer, geom, y) + (1 - cfg.omega) * travel_time(
        task, offer, geom, y
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)

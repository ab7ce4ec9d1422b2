import math
import random

import pytest

from uavhitch import PairGeometry, UavTask, VehicleOffer, max_hitch_distance, travel_time
from oracles import bisect_max_hitch


def test_unbounded_deadline_rejected():
    with pytest.raises(ValueError):
        max_hitch_distance(UavTask(x=5, u=60), VehicleOffer(v=40), PairGeometry(0.3))


def test_tight_deadline_off_axis_leaves_no_slack():
    task = UavTask(x=5, u=60, deadline=5 / 60)
    assert max_hitch_distance(task, VehicleOffer(v=40), PairGeometry(0.7)) == pytest.approx(
        0.0, abs=1e-9
    )


def test_tight_deadline_slow_vehicle_straight_ahead():
    task = UavTask(x=5, u=60, deadline=5 / 60)
    assert max_hitch_distance(task, VehicleOffer(v=30), PairGeometry(0.0)) == pytest.approx(
        0.0, abs=1e-9
    )


def test_equal_speeds_straight_ahead_is_flat():
    # u = v, theta = 0, D = x/u exactly (5/64 is a float): riding any
    # distance up to x costs nothing
    task = UavTask(x=5, u=64, deadline=5 / 64)
    assert max_hitch_distance(task, VehicleOffer(v=64), PairGeometry(0.0)) == 5.0


@pytest.mark.parametrize("theta", [0.0, 5e-324, 1e-12, 1e-8, 1e-6, 0.3])
@pytest.mark.parametrize("x, u", [(5.0, 60.0), (1.0, 20.0), (15.0, 26.0), (7.3, 26.0), (5.0, 64.0)])
def test_equal_speeds_at_the_rounded_direct_time_match_exact_oracle(x, u, theta):
    # u = v with D = x/u rounded: u*D is a hair above x (a ride of about x
    # meets D), exactly x (only theta = 0 rides, T flat on [0, x]) or a hair
    # below (no ride meets D), which only exact arithmetic tells apart.
    task, offer, geom = UavTask(x=x, u=u, deadline=x / u), VehicleOffer(v=u), PairGeometry(theta)
    assert max_hitch_distance(task, offer, geom) == pytest.approx(
        bisect_max_hitch(task, offer, geom), abs=1e-9
    )


def test_equal_speeds_with_slack():
    task = UavTask(x=5, u=60, deadline=0.25)
    offer, geom = VehicleOffer(v=60), PairGeometry(0.0)
    y = max_hitch_distance(task, offer, geom)
    # ride past the destination until the return flight spends the slack
    assert y == pytest.approx((60 * 0.25 + 5) / 2, rel=1e-12)
    assert travel_time(task, offer, geom, y) == pytest.approx(0.25, abs=1e-9)


def test_known_quadratic_case_matches_bisection():
    task = UavTask(x=5, u=60, deadline=0.25)
    offer, geom = VehicleOffer(v=30), PairGeometry(math.pi / 4)
    y = max_hitch_distance(task, offer, geom)
    assert y == pytest.approx(bisect_max_hitch(task, offer, geom), abs=1e-9)
    assert travel_time(task, offer, geom, y) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
@pytest.mark.parametrize("v", [20.0, 60.0, 90.0])
def test_degenerate_angles_match_bisection(theta, v):
    task = UavTask(x=8, u=60, deadline=0.4)
    offer, geom = VehicleOffer(v=v), PairGeometry(theta)
    assert max_hitch_distance(task, offer, geom) == pytest.approx(
        bisect_max_hitch(task, offer, geom), abs=1e-9
    )


def test_randomized_agreement_with_bisection():
    rng = random.Random(5)
    for _ in range(500):
        x = rng.uniform(0.5, 20)
        u = rng.uniform(20, 100)
        v = u if rng.random() < 0.15 else rng.uniform(5, 80)
        theta = rng.choice([0.0, math.pi / 2, math.pi, rng.uniform(0, math.pi)])
        d = (x / u) * rng.uniform(1.0, 3.0)
        task = UavTask(x=x, u=u, deadline=d)
        offer, geom = VehicleOffer(v=v), PairGeometry(theta)
        got = max_hitch_distance(task, offer, geom)
        want = bisect_max_hitch(task, offer, geom)
        assert got == pytest.approx(want, abs=1e-9), (x, u, v, theta, d)

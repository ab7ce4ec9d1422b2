import math

import numpy as np
import pytest

from uavhitch import PairGeometry, PlannerConfig, UavTask, VehicleOffer


def test_task_invariants():
    t = UavTask(x=5, u=60)
    assert t.direct_time == 5 / 60
    assert math.isinf(t.battery_headroom)
    with pytest.raises(ValueError):
        UavTask(x=0, u=60)
    with pytest.raises(ValueError):
        UavTask(x=5, u=0)
    with pytest.raises(ValueError):
        UavTask(x=5, u=60, deadline=0.05)  # shorter than the direct flight
    with pytest.raises(ValueError):
        UavTask(x=5, u=60, battery_capacity=0.0)
    with pytest.raises(ValueError):
        UavTask(x=5, u=60, battery_capacity=1.0, battery_level=2.0)
    with pytest.raises(ValueError):
        UavTask(x=5, u=60, battery_level=math.inf)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_distance_and_speeds_must_be_finite(value):
    with pytest.raises(ValueError, match="distance x must be positive and finite"):
        UavTask(x=value, u=60)
    with pytest.raises(ValueError, match="flight speed u must be positive and finite"):
        UavTask(x=5, u=value)
    with pytest.raises(ValueError, match="vehicle speed v must be positive and finite"):
        VehicleOffer(v=value)


def test_deadline_exactly_direct_flight_is_allowed():
    UavTask(x=5, u=60, deadline=5 / 60)


def test_offer_invariants():
    VehicleOffer(v=40, gamma=math.inf, capacity=3)
    with pytest.raises(ValueError):
        VehicleOffer(v=0)
    with pytest.raises(ValueError):
        VehicleOffer(v=40, gamma=-0.1)
    with pytest.raises(ValueError):
        VehicleOffer(v=40, capacity=0)


@pytest.mark.parametrize("capacity", [True, False])
def test_offer_rejects_a_bool_capacity(capacity):
    # A scenario file with "capacity": true exits 2; the model agrees.
    with pytest.raises(ValueError, match=f"capacity must be an integer >= 1, got {capacity}"):
        VehicleOffer(v=40, capacity=capacity)


@pytest.mark.parametrize(
    "capacity, shown",
    [("1", "'1'"), (np.int64(2), "np.int64(2)"), (2.0, "2.0"), (0, "0"), (-1, "-1")],
    ids=["str", "numpy_int", "float", "zero", "negative"],
)
def test_offer_capacity_message_shows_the_value_as_given(capacity, shown):
    # A string "1" used to read "got 1", as if it were the integer.
    with pytest.raises(ValueError) as info:
        VehicleOffer(v=40, capacity=capacity)
    assert str(info.value) == f"capacity must be an integer >= 1, got {shown}"


def test_geometry_invariants():
    PairGeometry(0.0)
    PairGeometry(math.pi)
    with pytest.raises(ValueError):
        PairGeometry(-0.1)
    with pytest.raises(ValueError):
        PairGeometry(math.pi + 0.1)


def test_config_invariants():
    PlannerConfig(omega=0.0)
    PlannerConfig(omega=1.0)
    with pytest.raises(ValueError):
        PlannerConfig(omega=1.2)
    with pytest.raises(ValueError):
        PlannerConfig(tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        PlannerConfig(tol=math.inf)
    for tol in (0.5, 1e300):
        with pytest.raises(ValueError, match="tol must be positive and at most 0.001"):
            PlannerConfig(tol=tol)
    assert PlannerConfig(tol=1e-3).tol == 1e-3


@pytest.mark.parametrize("tol", [1e-13, 1e-15])
def test_config_rejects_tol_below_the_certificate_floor(tol):
    # Below 1e-12 the dual certificate would reject the matcher's own
    # optimum: its potentials are tight only to their rounding.
    with pytest.raises(ValueError, match="tol must be at least 1e-12"):
        PlannerConfig(tol=tol)
    assert PlannerConfig(tol=1e-12).tol == 1e-12

"""Domain types for UAV-on-vehicle hitching plans.

Units are kilometres, hours and km/h throughout. Energy is measured in
flight-hour equivalents: the UAV burns one unit per hour of flight, and a
vehicle's charging rate ``gamma`` is units gained per hour of riding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

INF = math.inf

# Largest accepted comparison slack. Everything ``tol`` is compared against
# is of order one: the dimensionless eligibility ratio, angles in radians
# and savings in flight-hours (a 20 km trip at 60 km/h takes 0.33 h), so a
# larger slack would silently change which plans are eligible.
MAX_TOL = 1e-3

# Smallest accepted comparison slack. The dual certificate checks that
# p_i + q_j = w_ij on every matched edge within tol, but the matcher's
# potentials are tight only to the rounding of the shifts that built them:
# |p_i + q_j - w_ij| reaches 3.5e-15 on a 200 x 200 battery-limited fleet
# and 7.5e-15 on a 1000 x 1000 one, so a smaller slack would reject the
# matcher's own optimum.
MIN_TOL = 1e-12


class UnboundedHitchError(ValueError):
    """Charging outpaces the cost of riding and no deadline caps the trip.

    In that regime weighted consumption keeps decreasing with hitch
    distance, so there is no finite optimum to return.
    """


@dataclass(frozen=True)
class PlannerConfig:
    """Weighting and numeric tolerance shared by all planning calls.

    ``omega`` is the weight on energy versus travel time (1 = energy only,
    0 = time only). ``tol`` is the slack used for boundary comparisons.
    """

    omega: float = 0.8
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        if not 0.0 < self.tol <= MAX_TOL:
            raise ValueError(f"tol must be positive and at most {MAX_TOL}, got {self.tol}")
        if self.tol < MIN_TOL:
            raise ValueError(
                f"tol must be at least {MIN_TOL}, got {self.tol}: the dual certificate "
                "cannot check potentials tighter than their rounding"
            )


@dataclass(frozen=True)
class UavTask:
    """One UAV trip: straight-line distance ``x`` to the destination at
    flight speed ``u``, an optional arrival deadline, and battery state.

    ``x`` and ``u`` are finite; ``deadline`` and ``battery_capacity`` may
    be ``math.inf`` for the unbounded model. Battery quantities are
    flight-hour equivalents.
    """

    x: float
    u: float
    deadline: float = INF
    battery_capacity: float = INF
    battery_level: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.x < INF:
            raise ValueError(f"distance x must be positive and finite, got {self.x}")
        if not 0.0 < self.u < INF:
            raise ValueError(f"flight speed u must be positive and finite, got {self.u}")
        if not self.deadline > 0.0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if math.isfinite(self.deadline) and self.deadline < self.x / self.u:
            raise ValueError(
                f"deadline {self.deadline} is shorter than the direct flight "
                f"time {self.x / self.u}"
            )
        if not self.battery_capacity > 0.0:
            raise ValueError(
                f"battery_capacity must be positive, got {self.battery_capacity}"
            )
        if not math.isfinite(self.battery_level) or self.battery_level < 0.0:
            raise ValueError(
                f"battery_level must be finite and nonnegative, got {self.battery_level}"
            )
        if self.battery_level > self.battery_capacity:
            raise ValueError(
                f"battery_level {self.battery_level} exceeds capacity "
                f"{self.battery_capacity}"
            )

    @property
    def direct_time(self) -> float:
        """Direct-flight travel time, which is also the baseline consumption."""
        return self.x / self.u

    @property
    def battery_headroom(self) -> float:
        """Energy the battery can still absorb."""
        return self.battery_capacity - self.battery_level


@dataclass(frozen=True)
class VehicleOffer:
    """A vehicle's support offer: finite ground speed ``v``, charging rate
    ``gamma`` (0 = ride only, ``math.inf`` = battery swap) and how many
    UAVs it can carry at once.
    """

    v: float
    gamma: float = 0.0
    capacity: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.v < INF:
            raise ValueError(f"vehicle speed v must be positive and finite, got {self.v}")
        if not self.gamma >= 0.0:
            raise ValueError(f"charging rate gamma must be >= 0, got {self.gamma}")
        capacity = self.capacity
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be an integer >= 1, got {self.capacity}")


@dataclass(frozen=True)
class PairGeometry:
    """Angular deviation ``theta`` (radians, in [0, pi]) of the vehicle's
    travel direction from the UAV's destination direction."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")


class EligibilityReason(str, Enum):
    SPEED_TOO_LOW = "speed_too_low"
    CHARGE_TOO_LOW = "charge_too_low"
    ANGLE_TOO_WIDE = "angle_too_wide"
    ELIGIBLE = "eligible"


@dataclass(frozen=True)
class Eligibility:
    """Whether hitching on a given vehicle can beat flying direct.

    ``threshold_angle`` is the widest direction deviation that still pays
    off; it is ``None`` when the speed/charging precondition already fails.
    """

    eligible: bool
    reason: EligibilityReason
    threshold_angle: float | None


class Binding(str, Enum):
    INTERIOR = "interior"
    DEADLINE = "deadline"
    BATTERY_FULL = "battery_full"
    NO_HITCH = "no_hitch"


@dataclass(frozen=True)
class HitchPlan:
    """Resolved decision for one UAV-vehicle pair.

    ``y_star`` is the riding distance, ``consumption`` the weighted
    time/energy objective at that distance, and ``saving`` the reduction
    relative to flying direct (always >= 0). ``binding`` names the active
    constraint; ``swap_and_depart`` marks a battery swap with immediate
    departure.
    """

    y_star: float
    total_time: float
    energy: float
    consumption: float
    saving: float
    binding: Binding
    swap_and_depart: bool = False

"""Domain types for UAV-on-vehicle hitching plans.

Units are kilometres, hours and km/h throughout. Energy is measured in
flight-hour equivalents: the UAV burns one unit per hour of flight, and a
vehicle's charging rate ``gamma`` is units gained per hour of riding.

Each field rule is written once, in the table of its model type
(``TASK_RULES``, ``OFFER_RULES``, ``GEOMETRY_RULES``). A rule's test is
made of operators only, so it runs alike on one entry's fields and on
float64 columns of them: a model object raises the message of the first
rule of its table that it breaks, and ``matching``'s scenario columns
and ``theta_array`` run the same tables on arrays, and ``SavingMatrix``
its capacities' row and, as ``PlannerConfig`` does, ``TOL_RULES``.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
        _check(self, TOL_RULES)


Rule = namedtuple("Rule", "ok message")
# The rules of ``PlannerConfig``'s and ``matching.SavingMatrix``'s ``tol``.
TOL_RULES = (
    Rule(lambda e: (0.0 < e.tol) & (e.tol <= MAX_TOL),
         lambda e: f"tol must be positive and at most {MAX_TOL}, got {e.tol}"),
    Rule(lambda e: e.tol >= MIN_TOL,
         lambda e: f"tol must be at least {MIN_TOL}, got {e.tol}: the dual certificate "
                   "cannot check potentials tighter than their rounding"),
)
TASK_RULES = (
    Rule(lambda e: (0.0 < e.x) & (e.x < INF),
         lambda e: f"distance x must be positive and finite, got {e.x}"),
    Rule(lambda e: (0.0 < e.u) & (e.u < INF),
         lambda e: f"flight speed u must be positive and finite, got {e.u}"),
    Rule(lambda e: e.x / e.u < INF,
         lambda e: f"direct flight time x/u must be finite, got {e.x / e.u}"),
    Rule(lambda e: e.deadline > 0.0, lambda e: f"deadline must be positive, got {e.deadline}"),
    Rule(lambda e: e.deadline >= e.x / e.u,  # an infinite deadline passes
         lambda e: f"deadline {e.deadline} is shorter than the direct flight time {e.x / e.u}"),
    Rule(lambda e: e.battery_capacity > 0.0,
         lambda e: f"battery_capacity must be positive, got {e.battery_capacity}"),
    Rule(lambda e: (0.0 <= e.battery_level) & (e.battery_level < INF),
         lambda e: f"battery_level must be finite and nonnegative, got {e.battery_level}"),
    Rule(lambda e: e.battery_level <= e.battery_capacity,
         lambda e: f"battery_level {e.battery_level} exceeds capacity {e.battery_capacity}"),
)
OFFER_RULES = (
    Rule(lambda e: (0.0 < e.v) & (e.v < INF),
         lambda e: f"vehicle speed v must be positive and finite, got {e.v}"),
    Rule(lambda e: e.gamma >= 0.0, lambda e: f"charging rate gamma must be >= 0, got {e.gamma}"),
    Rule(lambda e: e.capacity >= 1,
         lambda e: f"capacity must be an integer >= 1, got {e.capacity!r}"),
)
GEOMETRY_RULES = (
    Rule(lambda e: (0.0 <= e.theta) & (e.theta <= math.pi),
         lambda e: f"theta must be in [0, pi], got {e.theta}"),
)


def _check(entry, rules) -> None:
    """Raise ``ValueError`` with the message of the first rule ``entry`` breaks."""
    for rule in rules:
        if not rule.ok(entry):
            raise ValueError(rule.message(entry))


@dataclass(frozen=True)
class UavTask:
    """One UAV trip: straight-line distance ``x`` to the destination at
    flight speed ``u``, an optional arrival deadline, and battery state.

    ``x``, ``u`` and the direct flight time ``x / u`` are finite;
    ``deadline`` and ``battery_capacity`` may be ``math.inf`` for the
    unbounded model. Battery quantities are flight-hour equivalents.
    """

    x: float
    u: float
    deadline: float = INF
    battery_capacity: float = INF
    battery_level: float = 0.0

    def __post_init__(self) -> None:
        _check(self, TASK_RULES)

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
        *rules, capacity = OFFER_RULES
        _check(self, rules)
        # A bool or a non-int breaks the capacity rule too; columns hold
        # integers only, so this type check is the model's own.
        if isinstance(self.capacity, bool) or not isinstance(self.capacity, int):
            raise ValueError(capacity.message(self))
        _check(self, [capacity])


@dataclass(frozen=True)
class PairGeometry:
    """Angular deviation ``theta`` (radians, in [0, pi]) of the vehicle's
    travel direction from the UAV's destination direction."""

    theta: float

    def __post_init__(self) -> None:
        _check(self, GEOMETRY_RULES)


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

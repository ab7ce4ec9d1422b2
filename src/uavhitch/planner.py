"""Closed-form hitching plans for a single UAV-vehicle pair.

A UAV ``i`` at distance ``x`` from its destination can ride a vehicle for a
distance ``y`` along the vehicle's direction (deviating by ``theta`` from the
destination direction) and fly the remaining leg. The model quantities are

    flight leg   F(y) = sqrt(x^2 - 2*x*y*cos(theta) + y^2)
    travel time  T(y) = y/v + F(y)/u
    energy       E(y) = F(y)/u - (gamma/v)*y
    consumption  C(omega, y) = omega*E(y) + (1 - omega)*T(y)

C is convex in y, which yields the closed-form optima implemented here. The
pivotal quantity is cos(phi) = (1 - (1 + gamma)*omega) * u / v: vehicles are
worth hitching exactly when theta stays below the threshold angle phi.

Each planner makes one pass per pair: eligibility, the deadline distance
(one root solve), then closed-form candidates capped by that distance. A
full battery takes no charge, so it rides any vehicle as a ride-only one.
"""

from __future__ import annotations

import math

from .model import (
    Binding,
    Eligibility,
    EligibilityReason,
    HitchPlan,
    PairGeometry,
    PlannerConfig,
    UavTask,
    UnboundedHitchError,
    VehicleOffer,
)

__all__ = [
    "flight_leg",
    "travel_time",
    "energy",
    "energy_limited",
    "consumption",
    "eligibility",
    "eligibility_ho",
    "max_hitch_distance",
    "optimal_distance",
    "optimal_distance_ho",
    "optimal_distance_limited",
    "battery_swap_plan",
    "plan_pair",
    "select_vehicle",
    "hitch_only_speed_threshold",
]


def flight_leg(x: float, theta: float, y: float) -> float:
    """Length of the flight from the drop-off point to the destination.

    Evaluated as hypot(y - x*cos(theta), x*sin(theta)), which is exact for
    theta = 0 (|x - y|) and never suffers cancellation under the root.
    """
    return math.hypot(y - x * math.cos(theta), x * math.sin(theta))


def _evaluate(
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y: float,
    headroom: float | None,
    omega: float = 0.0,
) -> tuple[float, float, float]:
    """(T, E, C) at riding distance y, with the flight leg computed once.

    The charge saturates at ``headroom`` (0: ride-only; ``None``: unbounded
    battery, where a swap has no finite energy). C is weighted by ``omega``.
    """
    if y < 0.0:
        raise ValueError(f"hitch distance y must be >= 0, got {y}")
    if headroom is None and math.isinf(offer.gamma):
        raise ValueError("energy is undefined for battery-swap offers (gamma=inf)")
    flight = flight_leg(task.x, geom.theta, y) / task.u
    charge = (offer.gamma / offer.v) * y
    if headroom is not None:
        charge = 0.0 if y == 0.0 else min(headroom, charge)
    t = y / offer.v + flight
    e = flight - charge
    return t, e, omega * e + (1.0 - omega) * t


def travel_time(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    """Total trip duration: riding time y/v plus flight time F(y)/u."""
    # T is the same under both battery models; only the limited one accepts swaps.
    return _evaluate(task, offer, geom, y, task.battery_headroom)[0]


def energy(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    """Net energy use with an unbounded battery: flight burn minus charge.

    Negative values mean the UAV lands with more energy than it started
    with. Battery-swap offers (infinite gamma) have no finite energy here;
    use :func:`battery_swap_plan` for those.
    """
    return _evaluate(task, offer, geom, y, None)[1]


def energy_limited(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    """Net energy use when charging saturates at the battery headroom."""
    return _evaluate(task, offer, geom, y, task.battery_headroom)[1]


def consumption(
    cfg: PlannerConfig,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y: float,
    limited: bool = False,
) -> float:
    """Weighted objective omega*E + (1 - omega)*T at riding distance y."""
    headroom = task.battery_headroom if limited else None
    return _evaluate(task, offer, geom, y, headroom, cfg.omega)[2]


def hitch_only_speed_threshold(cfg: PlannerConfig, task: UavTask) -> float:
    """Minimum vehicle speed for a ride-only vehicle to be worth taking."""
    return (1.0 - cfg.omega) * task.u


def eligibility(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> Eligibility:
    """Decide whether riding this vehicle can reduce weighted consumption.

    The marginal value of the first metre of riding is positive exactly when
    cos(theta) exceeds (1 - (1 + gamma)*omega)*u/v. Three regimes follow:

    * that quantity >= 1: no direction helps (vehicle too slow for a
      ride-only offer, or charging too weak to compensate);
    * <= -1: every direction helps, the threshold angle is pi (charging is
      so fast that even riding away from the destination pays off);
    * otherwise the threshold is its arccos and theta must stay below it.
    """
    return _eligibility(cfg, task, offer, geom, offer.gamma)


def _eligibility(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry, gamma: float
) -> Eligibility:
    """:func:`eligibility` at charging rate ``gamma`` instead of the offer's."""
    omega, tol = cfg.omega, cfg.tol
    u, v = task.u, offer.v
    # With omega = 0 the charging term never enters the objective, so an
    # infinite rate contributes nothing; otherwise inf * omega = inf.
    weighted_rate = omega * gamma if math.isfinite(gamma) else (math.inf if omega > 0.0 else 0.0)

    # Precondition (threshold angle would be <= 0): omega*gamma <= 1 - omega - v/u.
    if weighted_rate <= 1.0 - omega - v / u + tol:
        reason = (
            EligibilityReason.SPEED_TOO_LOW
            if gamma == 0.0
            else EligibilityReason.CHARGE_TOO_LOW
        )
        return Eligibility(False, reason, None)

    # Always-eligible regime: omega*gamma >= 1 - omega + v/u.
    if weighted_rate >= 1.0 - omega + v / u:
        return Eligibility(True, EligibilityReason.ELIGIBLE, math.pi)

    cos_phi = (1.0 - omega - weighted_rate) * u / v
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    if geom.theta < phi - tol:
        return Eligibility(True, EligibilityReason.ELIGIBLE, phi)
    return Eligibility(False, EligibilityReason.ANGLE_TOO_WIDE, phi)


def eligibility_ho(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> Eligibility:
    """Eligibility for a ride-only vehicle. Requires offer.gamma == 0."""
    if offer.gamma != 0.0:
        raise ValueError("eligibility_ho requires a ride-only offer (gamma == 0)")
    return eligibility(cfg, task, offer, geom)


def max_hitch_distance(task: UavTask, offer: VehicleOffer, geom: PairGeometry) -> float:
    """Largest riding distance that still meets the deadline.

    Solves T(y) = D by squaring the flight-time term, which yields

        (1 - u^2/v^2) y^2 + (2 D u^2 / v - 2 x cos(theta)) y + (x^2 - u^2 D^2) = 0

    subject to the sign condition y <= v*D introduced by the squaring. The
    largest feasible root is returned; when u = v the equation degenerates
    to a linear one, and when that also vanishes (theta = 0, D = x/u) the
    whole interval [0, x] is feasible and x is returned.
    """
    if math.isinf(task.deadline):
        raise ValueError("max_hitch_distance requires a bounded deadline")
    x, u, d = task.x, task.u, task.deadline
    v = offer.v
    cos_t = math.cos(geom.theta)

    a = 1.0 - (u * u) / (v * v)
    b = 2.0 * d * u * u / v - 2.0 * x * cos_t
    c = x * x - u * u * d * d

    slack = 1e-12 * max(1.0, v * d)
    candidates = [0.0]
    if a == 0.0:
        # u = v: the root is (uD - x)(uD + x) / (2 [(uD - x) + x (1 - cos)]).
        # Both bracketed terms are nonnegative (D >= x/u), so the sum never
        # cancels; the naive -c/b form is 0/0 noise when theta ~ 0, D ~ x/u.
        denom = 2.0 * ((u * d - x) + x * 2.0 * math.sin(geom.theta / 2.0) ** 2)
        if denom == 0.0:
            # theta = 0, u = v, D = x/u: T is flat at D on [0, x].
            return x
        candidates.append((u * d - x) * (u * d + x) / denom)
    else:
        disc = max(b * b - 4.0 * a * c, 0.0)
        root = math.sqrt(disc)
        # Stable split: q/a and c/q avoid cancellation when |a| is tiny.
        q = -0.5 * (b + math.copysign(root, b)) if b != 0.0 else 0.5 * root
        candidates.append(q / a)
        if q != 0.0:
            candidates.append(c / q)

    best = 0.0
    for y in candidates:
        if -slack <= y <= v * d + slack:
            best = max(best, min(max(y, 0.0), v * d))
    return best


def _deadline_cap(task: UavTask, offer: VehicleOffer, geom: PairGeometry) -> float:
    return math.inf if math.isinf(task.deadline) else max_hitch_distance(task, offer, geom)


def _no_hitch_plan(task: UavTask, swap: bool = False) -> HitchPlan:
    base = task.direct_time
    return HitchPlan(0.0, base, base, base, 0.0, Binding.NO_HITCH, swap)


def _finish_plan(
    cfg: PlannerConfig,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y: float,
    binding: Binding,
    headroom: float | None,
) -> HitchPlan:
    if y <= 0.0:
        return _no_hitch_plan(task)
    t, e, c = _evaluate(task, offer, geom, y, headroom, cfg.omega)
    saving = task.direct_time - c
    if saving <= 0.0:
        # The capped plan never beats the baseline for an eligible vehicle;
        # guard against rounding right at the boundary.
        return _no_hitch_plan(task)
    return HitchPlan(y, t, e, c, saving, binding)


def _eligible_plan(
    cfg: PlannerConfig,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    phi: float,
    y_deadline: float,
    headroom: float | None = None,
) -> HitchPlan:
    """Plan for an offer eligible at threshold angle phi, capped at y_deadline."""
    if phi < math.pi:
        y_interior = task.x * math.sin(phi - geom.theta) / math.sin(phi)
        if y_interior <= y_deadline:
            return _finish_plan(cfg, task, offer, geom, y_interior, Binding.INTERIOR, headroom)
    elif math.isinf(y_deadline):
        raise UnboundedHitchError(
            "consumption decreases with distance for this offer; "
            "a bounded deadline is required"
        )
    return _finish_plan(cfg, task, offer, geom, y_deadline, Binding.DEADLINE, headroom)


def optimal_distance(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Best riding distance with an unbounded battery.

    For an eligible vehicle the convex objective has the stationary point
    y = x*sin(phi - theta)/sin(phi), capped by the deadline. In the
    always-eligible regime (phi = pi) only the deadline stops the ride, so
    an unbounded deadline is an error there.
    """
    elig = eligibility(cfg, task, offer, geom)
    if not elig.eligible:
        return _no_hitch_plan(task)
    y_deadline = _deadline_cap(task, offer, geom)
    return _eligible_plan(cfg, task, offer, geom, elig.threshold_angle, y_deadline)


def optimal_distance_ho(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Best riding distance on a ride-only vehicle. Requires gamma == 0."""
    if offer.gamma != 0.0:
        raise ValueError("optimal_distance_ho requires a ride-only offer (gamma == 0)")
    return optimal_distance(cfg, task, offer, geom)


def optimal_distance_limited(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Best riding distance when the battery can only absorb so much charge.

    Once the battery is full, continued riding behaves like a ride-only
    vehicle, so the optimum is one of three candidates, each capped by the
    deadline distance: the unbounded-battery optimum (cap never reached),
    the ride-only optimum (cap reached before it), or the cap distance.
    """
    if math.isinf(offer.gamma):
        # Instant charge is a battery swap; that plan owns the accounting.
        return battery_swap_plan(cfg, task, offer, geom)
    headroom = task.battery_headroom
    if offer.gamma == 0.0 or math.isinf(headroom):
        return optimal_distance(cfg, task, offer, geom)

    elig = eligibility(cfg, task, offer, geom)
    if not elig.eligible:
        return _no_hitch_plan(task)
    y_deadline = _deadline_cap(task, offer, geom)
    y_cap = headroom * offer.v / offer.gamma

    ride = _eligibility(cfg, task, offer, geom, 0.0)
    if ride.eligible:
        ho_plan = _eligible_plan(cfg, task, offer, geom, ride.threshold_angle, y_deadline, 0.0)
        if y_cap <= ho_plan.y_star:
            # Fully charged before the ride-only optimum: keep riding to it.
            return _finish_plan(cfg, task, offer, geom, ho_plan.y_star, ho_plan.binding, headroom)
    elif y_cap <= 0.0:
        return _no_hitch_plan(task)  # a full battery, and riding alone does not pay

    if elig.threshold_angle < math.pi or math.isfinite(y_deadline):
        full = _eligible_plan(cfg, task, offer, geom, elig.threshold_angle, y_deadline)
        if y_cap >= full.y_star:
            return full
    # Full before the unbounded-battery optimum (never past the deadline
    # distance, and absent at phi = pi without a deadline): ride to the cap.
    return _finish_plan(cfg, task, offer, geom, y_cap, Binding.BATTERY_FULL, headroom)


def battery_swap_plan(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Plan for a vehicle that swaps in a fresh battery (gamma = inf).

    Any vehicle is worth meeting for the swap. Afterwards the full battery
    makes further riding a ride-only decision: continue to the ride-only
    optimum if the direction qualifies, otherwise depart immediately.
    """
    if not math.isinf(offer.gamma):
        raise ValueError("battery_swap_plan requires a battery-swap offer (gamma == inf)")
    elig = _eligibility(cfg, task, offer, geom, 0.0)
    if not elig.eligible:
        return _no_hitch_plan(task, swap=True)
    y_deadline = _deadline_cap(task, offer, geom)
    return _eligible_plan(cfg, task, offer, geom, elig.threshold_angle, y_deadline, 0.0)


def plan_pair(
    cfg: PlannerConfig,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    limited: bool = False,
) -> HitchPlan:
    """Dispatch to the plan matching the offer and battery model."""
    if limited or math.isinf(offer.gamma):
        return optimal_distance_limited(cfg, task, offer, geom)
    return optimal_distance(cfg, task, offer, geom)


def select_vehicle(
    cfg: PlannerConfig,
    task: UavTask,
    offers: list[tuple[VehicleOffer, PairGeometry]],
    limited: bool = False,
) -> tuple[int, HitchPlan]:
    """Pick the offer with the lowest resulting consumption.

    Ties go to the lowest offer index.
    """
    if not offers:
        raise ValueError("select_vehicle needs at least one offer")
    plans = [plan_pair(cfg, task, offer, geom, limited) for offer, geom in offers]
    best = min(range(len(plans)), key=lambda i: plans[i].consumption)
    return best, plans[best]

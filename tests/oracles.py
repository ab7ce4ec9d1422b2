"""Independent numeric oracles used by the test suite.

The numeric oracles go through no closed-form planner path: the
consumption minimizer is a dense grid plus golden-section refinement, and
the deadline inverse is a bisection that decides T(y) <= D exactly, in
rational arithmetic. Both only rely on direct evaluation of the model
formulas.

Two scalar references keep the element-by-element form of a vectorized
path, which must reproduce them bit for bit. ``scalar_plan_pair`` is the
decision chain of one pair (eligibility, deadline distance, closed-form
candidates, battery cap, swap), one Python call per pair, that
``planner.plan_matrix`` transcribes. Its closed forms are its own, in
``math`` one float at a time (``scalar_eligibility``,
``scalar_max_hitch_distance``, ``scalar_evaluate``): it calls neither
``plan_matrix`` nor the planner's array kernels, which the planner's
one-pair helpers share with ``plan_matrix``. ``scalar_msa_match`` is the primal-dual matcher over
capacity-expanded columns, one column per seat, that ``msa_match``
replaced: where every vehicle has one seat, ``msa_match`` must reproduce
it bit for bit, and the matcher's capacity > 1 pins gate it.
``matched_columns`` rebuilds the expanded column of each rider of a
per-vehicle assignment, the key those pins hash.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from uavhitch import (
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
from uavhitch.planner import UNBOUNDED_MESSAGE

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def consumption_direct(
    omega: float,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y,
    limited: bool = False,
):
    """Evaluate the consumption objective from scratch (scalar or array)."""
    y = np.asarray(y, dtype=float)
    flight = np.hypot(y - task.x * math.cos(geom.theta), task.x * math.sin(geom.theta))
    t = y / offer.v + flight / task.u
    charge = (offer.gamma / offer.v) * y
    if limited:
        charge = np.minimum(charge, task.battery_headroom)
    e = flight / task.u - charge
    return omega * e + (1.0 - omega) * t


def consumption_scalar(omega: float, task: UavTask, offer: VehicleOffer, geom: PairGeometry,
                       limited: bool = False):
    """:func:`consumption_direct`'s formulas as a function of one float ``y``,
    with ``math`` in place of numpy, for the golden-section refinement."""
    along, across = task.x * math.cos(geom.theta), task.x * math.sin(geom.theta)
    rate, headroom = offer.gamma / offer.v, task.battery_headroom

    def consumption(y: float) -> float:
        flight = math.hypot(y - along, across)
        t = y / offer.v + flight / task.u
        charge = rate * y
        if limited:
            charge = min(charge, headroom)
        e = flight / task.u - charge
        return omega * e + (1.0 - omega) * t

    return consumption


def travel_time_direct(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    flight = math.hypot(y - task.x * math.cos(geom.theta), task.x * math.sin(geom.theta))
    return y / offer.v + flight / task.u


@functools.lru_cache(maxsize=4096)
def _versine_bounds(theta: float, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= (1 - cos(theta)) / theta^2 <= hi for theta in [0, pi],
    a few units of 2**-bits apart: the series 1/2! - theta^2/4! +
    theta^4/6! - ... summed in integers scaled by 2**bits.

    Relative to 1 - cos(theta), the bounds stay tight however small theta
    is. Each term is the previous one times theta^2 / ((2k+1)(2k+2)) < 0.83,
    rounded down, so no term is more than 6 units low; once a term rounds to
    0 the alternating rest of the series is smaller than the true term, at
    most 6 units. With K terms summed the sum is within 6K + 8 units.
    """
    num, den = theta.as_integer_ratio()
    num2, den2 = num * num, den * den
    scale = 1 << bits
    term = total = scale // 2
    k = 0
    while term:
        k += 1
        term = term * num2 // (den2 * (2 * k + 1) * (2 * k + 2))
        total += -term if k % 2 else term
    err = 6 * k + 8
    return Fraction(total - err, scale), Fraction(total + err, scale)


def meets_deadline(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> bool:
    """Whether riding y meets the deadline, T(y) <= D, decided exactly.

    Every float input is an exact rational. T(y) <= D holds exactly when
    D - y/v >= 0 and x^2 - 2*x*y*cos(theta) + y^2 <= u^2 (D - y/v)^2, with
    the real cos(theta) enclosed through :func:`_versine_bounds`, ever
    tighter until the sign is decided. y = 0 (flying direct) always meets it.
    """
    if y == 0.0:
        return True
    x, u, v, d, y = (Fraction(a) for a in (task.x, task.u, offer.v, task.deadline, y))
    slack = d - y / v
    if slack < 0:
        return False
    # x^2 + y^2 - u^2 (D - y/v)^2 <= 2*x*y*cos(theta), with 2*x*y > 0 and
    # cos(theta) = 1 - theta^2 * versine_ratio
    lhs, k = x * x + y * y - u * u * slack * slack, 2 * x * y
    if geom.theta == 0.0:
        return lhs <= k
    k_theta2 = k * Fraction(geom.theta) ** 2
    for bits in (128, 512, 2048):
        lo, hi = _versine_bounds(geom.theta, bits)
        if lhs <= k - k_theta2 * hi:
            return True
        if lhs > k - k_theta2 * lo:
            return False
    raise AssertionError(f"T({y}) <= D undecided at theta = {geom.theta}")


def bisect_max_hitch(
    task: UavTask, offer: VehicleOffer, geom: PairGeometry, tol: float = 1e-12
) -> float:
    """Largest y in [0, v*D] with T(y) <= D, within tol * max(1, v*D).

    T is convex and meets D at y = 0, so its sublevel set is an interval
    starting at 0 and a bisection pins its right end, deciding each
    T(y) <= D with :func:`meets_deadline`. A bisection on the rounded T
    proposes the end first; where the exact test confirms it, that is the
    answer. Where T is within rounding of D over a stretch (u = v with
    D = x/u), the rounded one cannot tell, and the bisection is rerun
    with the exact test.
    """
    d = task.deadline
    top = offer.v * d
    span = max(1.0, top)

    def bisect(feasible) -> tuple[float, float]:
        lo, hi = 0.0, top
        if feasible(hi):
            return hi, math.inf
        while hi - lo > tol * span:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    def exact(y: float) -> bool:
        return meets_deadline(task, offer, geom, y)

    lo, hi = bisect(lambda y: travel_time_direct(task, offer, geom, y) <= d)
    if exact(lo) and (math.isinf(hi) or not exact(hi)):
        return lo
    return bisect(exact)[0]


def golden_min(f, lo: float, hi: float, iters: int = 120) -> float:
    a, b = lo, hi
    c1 = b - GOLDEN * (b - a)
    c2 = a + GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - GOLDEN * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + GOLDEN * (b - a)
            f2 = f(c2)
    mid = 0.5 * (a + b)
    return min(f(mid), f1, f2)


def oracle_min_consumption(
    omega: float,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    limited: bool = False,
    n_grid: int = 10001,
) -> float:
    """Grid + golden-section minimum of consumption over the feasible range.

    The grid spans [0, max(3x, T^-1(D))]; with a bounded deadline only the
    points meeting it (per the bisection oracle) are admissible.
    """
    if math.isinf(task.deadline):
        cap = math.inf
        upper = 3.0 * task.x
    else:
        cap = bisect_max_hitch(task, offer, geom)
        upper = max(3.0 * task.x, cap)
    ys = np.linspace(0.0, upper, n_grid)
    if cap < upper:
        # Keep the cap itself as a candidate; the optimum frequently sits on it.
        ys = np.append(ys[ys <= cap + 1e-12], cap)
    values = consumption_direct(omega, task, offer, geom, ys, limited)
    k = int(np.argmin(values))
    best = float(values[k])

    lo = float(ys[k - 1]) if k > 0 else float(ys[k])
    hi = float(ys[k + 1]) if k + 1 < len(ys) else float(ys[k])
    if not math.isinf(cap):
        hi = min(hi, cap)
    refined = golden_min(consumption_scalar(omega, task, offer, geom, limited), lo, hi)
    return min(best, refined)


def random_instance(rng: random.Random, regime: str):
    """Draw one valid planning instance in the requested regime.

    Regimes: ``ho`` (no charging), ``charging`` (moderate rate, threshold
    angle kept below 2.8 rad so the optimum stays inside the 3x oracle
    grid), ``pi`` (always-eligible charging, bounded deadline), ``deadline``
    (tight deadline), ``battery`` (finite headroom). Returns
    (config, task, offer, geom, limited).
    """
    x = rng.uniform(0.5, 20.0)
    u = rng.uniform(20.0, 100.0)
    v = rng.uniform(5.0, 80.0)
    theta = rng.uniform(0.0, math.pi)
    omega = rng.uniform(0.05, 1.0)
    deadline = math.inf
    capacity, level = math.inf, 0.0
    limited = False

    if regime == "ho":
        gamma = 0.0
    elif regime == "charging":
        gamma = _moderate_gamma(rng, omega, u, v)
    elif regime == "pi":
        omega = rng.uniform(0.3, 1.0)
        gamma = (1.0 - omega + v / u) / omega * rng.uniform(1.0, 2.0)
        deadline = (x / u) * rng.uniform(1.0, 3.0)
    elif regime == "deadline":
        gamma = _moderate_gamma(rng, omega, u, v) if rng.random() < 0.5 else 0.0
        deadline = (x / u) * rng.uniform(1.0, 2.0)
    elif regime == "battery":
        gamma = _moderate_gamma(rng, omega, u, v)
        if gamma == 0.0:
            gamma = 0.2
        capacity = rng.uniform(0.01, 1.0)
        level = rng.uniform(0.0, capacity)
        limited = True
        if rng.random() < 0.3:
            deadline = (x / u) * rng.uniform(1.0, 2.0)
    else:
        raise ValueError(f"unknown regime {regime!r}")

    cfg = PlannerConfig(omega=omega)
    task = UavTask(
        x=x, u=u, deadline=deadline, battery_capacity=capacity, battery_level=level
    )
    return cfg, task, VehicleOffer(v=v, gamma=gamma), PairGeometry(theta), limited


def _moderate_gamma(rng: random.Random, omega: float, u: float, v: float) -> float:
    # Keep cos(phi) >= cos(2.8) so the interior optimum stays within 3x.
    cos_floor = math.cos(2.8)
    if omega > 0.0:
        hi = max(0.0, (1.0 - omega - cos_floor * v / u) / omega)
    else:
        hi = 2.0
    return rng.uniform(0.0, min(hi, 2.0))


def scalar_eligibility(
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
            if weighted_rate == 0.0
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


def scalar_max_hitch_distance(task: UavTask, offer: VehicleOffer, geom: PairGeometry) -> float:
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
        # u = v, so T(y) >= y/u + (x - y)/u = x/u for every y: no ride meets
        # a deadline below x/u, and at D = x/u only riding straight ahead
        # does, where T is flat at D on [0, x]. Near there uD - x is as small
        # as the rounding error of u*D, so it comes from the exact product.
        excess = float(Fraction(u) * Fraction(d) - Fraction(x))
        if excess <= 0.0:
            return x if excess == 0.0 and geom.theta == 0.0 else 0.0
        # The root is (uD - x)(uD + x) / (2 [(uD - x) + x (1 - cos)]). Both
        # bracketed terms are nonnegative, so the sum never cancels; the
        # naive -c/b form is 0/0 noise when theta ~ 0, D ~ x/u.
        denom = 2.0 * (excess + x * 2.0 * math.sin(geom.theta / 2.0) ** 2)
        candidates.append(excess * (u * d + x) / denom)
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


def scalar_evaluate(
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y: float,
    headroom: float | None,
    omega: float = 0.0,
) -> tuple[float, float, float]:
    """(T, E, C) at riding distance y, with the flight leg computed once.

    The charge saturates at ``headroom`` (0: ride-only; ``None`` or
    infinite: unbounded battery, where a swap has no finite energy). C is
    weighted by ``omega``.
    """
    if not 0.0 <= y < math.inf:
        raise ValueError(f"hitch distance y must be finite and >= 0, got {y}")
    if math.isinf(offer.gamma) and (headroom is None or math.isinf(headroom)):
        raise ValueError("energy is undefined for battery-swap offers (gamma=inf)")
    flight = math.hypot(y - task.x * math.cos(geom.theta), task.x * math.sin(geom.theta)) / task.u
    charge = (offer.gamma / offer.v) * y
    if headroom is not None:
        charge = 0.0 if y == 0.0 else min(headroom, charge)
    t = y / offer.v + flight
    e = flight - charge
    return t, e, omega * e + (1.0 - omega) * t


def scalar_deadline_cap(task: UavTask, offer: VehicleOffer, geom: PairGeometry) -> float:
    return math.inf if math.isinf(task.deadline) else scalar_max_hitch_distance(task, offer, geom)


def scalar_no_hitch_plan(task: UavTask, swap: bool = False) -> HitchPlan:
    base = task.direct_time
    return HitchPlan(0.0, base, base, base, 0.0, Binding.NO_HITCH, swap)


def scalar_finish_plan(
    cfg: PlannerConfig,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y: float,
    binding: Binding,
    headroom: float | None,
) -> HitchPlan:
    if y <= 0.0:
        return scalar_no_hitch_plan(task)
    t, e, c = scalar_evaluate(task, offer, geom, y, headroom, cfg.omega)
    saving = task.direct_time - c
    if saving <= 0.0:
        # The capped plan never beats the baseline for an eligible vehicle;
        # guard against rounding right at the boundary.
        return scalar_no_hitch_plan(task)
    return HitchPlan(y, t, e, c, saving, binding)


def scalar_eligible_plan(
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
            return scalar_finish_plan(
                cfg, task, offer, geom, y_interior, Binding.INTERIOR, headroom
            )
    elif math.isinf(y_deadline):
        raise UnboundedHitchError(UNBOUNDED_MESSAGE)
    return scalar_finish_plan(cfg, task, offer, geom, y_deadline, Binding.DEADLINE, headroom)


def scalar_optimal_distance(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Best riding distance with an unbounded battery.

    For an eligible vehicle the convex objective has the stationary point
    y = x*sin(phi - theta)/sin(phi), capped by the deadline. In the
    always-eligible regime (phi = pi) only the deadline stops the ride, so
    an unbounded deadline is an error there.
    """
    elig = scalar_eligibility(cfg, task, offer, geom, offer.gamma)
    if not elig.eligible:
        return scalar_no_hitch_plan(task)
    y_deadline = scalar_deadline_cap(task, offer, geom)
    return scalar_eligible_plan(cfg, task, offer, geom, elig.threshold_angle, y_deadline)


def scalar_optimal_distance_limited(
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
        return scalar_battery_swap_plan(cfg, task, offer, geom)
    headroom = task.battery_headroom
    if offer.gamma == 0.0 or math.isinf(headroom):
        return scalar_optimal_distance(cfg, task, offer, geom)

    elig = scalar_eligibility(cfg, task, offer, geom, offer.gamma)
    if not elig.eligible:
        return scalar_no_hitch_plan(task)
    y_deadline = scalar_deadline_cap(task, offer, geom)
    y_cap = headroom * offer.v / offer.gamma

    ride = scalar_eligibility(cfg, task, offer, geom, 0.0)
    if ride.eligible:
        ho_plan = scalar_eligible_plan(
            cfg, task, offer, geom, ride.threshold_angle, y_deadline, 0.0
        )
        if y_cap <= ho_plan.y_star:
            # Fully charged before the ride-only optimum: keep riding to it.
            return scalar_finish_plan(
                cfg, task, offer, geom, ho_plan.y_star, ho_plan.binding, headroom
            )
    elif y_cap <= 0.0:
        return scalar_no_hitch_plan(task)  # a full battery, and riding alone does not pay

    if elig.threshold_angle < math.pi or math.isfinite(y_deadline):
        full = scalar_eligible_plan(cfg, task, offer, geom, elig.threshold_angle, y_deadline)
        if y_cap >= full.y_star:
            return full
    # Full before the unbounded-battery optimum (never past the deadline
    # distance, and absent at phi = pi without a deadline): ride to the cap.
    return scalar_finish_plan(cfg, task, offer, geom, y_cap, Binding.BATTERY_FULL, headroom)


def scalar_battery_swap_plan(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Plan for a vehicle that swaps in a fresh battery (gamma = inf).

    Any vehicle is worth meeting for the swap. Afterwards the full battery
    makes further riding a ride-only decision: continue to the ride-only
    optimum if the direction qualifies, otherwise depart immediately.
    """
    if not math.isinf(offer.gamma):
        raise ValueError("battery_swap_plan requires a battery-swap offer (gamma == inf)")
    elig = scalar_eligibility(cfg, task, offer, geom, 0.0)
    if not elig.eligible:
        return scalar_no_hitch_plan(task, swap=True)
    y_deadline = scalar_deadline_cap(task, offer, geom)
    return scalar_eligible_plan(cfg, task, offer, geom, elig.threshold_angle, y_deadline, 0.0)


def scalar_plan_pair(
    cfg: PlannerConfig,
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    limited: bool = False,
) -> HitchPlan:
    """Dispatch to the plan matching the offer and battery model."""
    if limited or math.isinf(offer.gamma):
        return scalar_optimal_distance_limited(cfg, task, offer, geom)
    return scalar_optimal_distance(cfg, task, offer, geom)


def scalar_msa_match(m) -> tuple:
    """The primal-dual max-saving loop over Python lists, one expanded
    column at a time. Returns ``(sorted matched columns, iterations, p, q, total)``
    with the matched columns and total taken over edges above ``tol``.
    """
    n_rows, n_cols = m.n_uavs, m.n_vehicles
    w = m.weights.tolist()
    tol = m.tol

    p = [max(row, default=0.0) for row in w]
    q = [0.0] * n_cols
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
    iterations = 0

    for root in range(n_rows):
        if p[root] <= tol:
            continue
        iterations += 1

        in_tree_row = [False] * n_rows
        in_tree_col = [False] * n_cols
        slack = [math.inf] * n_cols
        slack_row = [-1] * n_cols
        prev_row = [-1] * n_cols

        def add_row(r: int) -> None:
            in_tree_row[r] = True
            for j in range(n_cols):
                if in_tree_col[j] or w[r][j] <= tol:
                    continue
                s = p[r] + q[j] - w[r][j]
                if s < slack[j]:
                    slack[j] = s
                    slack_row[j] = r

        def augment(j: int) -> None:
            while j != -1:
                r = prev_row[j]
                j_next = match_row[r]
                match_row[r] = j
                match_col[j] = r
                j = j_next

        add_row(root)
        while True:
            delta_cols = math.inf
            arg_col = -1
            for j in range(n_cols):
                if not in_tree_col[j] and slack[j] < delta_cols:
                    delta_cols = slack[j]
                    arg_col = j
            delta_zero = math.inf
            arg_row = -1
            for r in range(n_rows):
                if in_tree_row[r] and p[r] < delta_zero:
                    delta_zero = p[r]
                    arg_row = r

            eps = min(delta_cols, delta_zero)
            if eps > 0.0:
                for r in range(n_rows):
                    if in_tree_row[r]:
                        p[r] -= eps
                for j in range(n_cols):
                    if in_tree_col[j]:
                        q[j] += eps
                    elif slack[j] < math.inf:
                        slack[j] -= eps

            if arg_col != -1 and delta_cols <= delta_zero:
                j = arg_col
                prev_row[j] = slack_row[j]
                if match_col[j] == -1:
                    augment(j)
                    break
                in_tree_col[j] = True
                add_row(match_col[j])
            else:
                r0 = arg_row
                freed = match_row[r0]
                match_row[r0] = -1
                if freed != -1:
                    augment(freed)
                break

    matched = [(i, j) for i, j in enumerate(match_row) if j >= 0 and w[i][j] > tol]
    total = 0.0
    for i, j in matched:
        total += w[i][j]
    return matched, iterations, p, q, total


def matched_columns(m, result) -> dict[int, int]:
    """The capacity-expanded column of each UAV of ``result.assignment``,
    in UAV order: a vehicle's riders take its columns lowest first, in UAV
    order, as in ``scalar_msa_match``'s matched columns."""
    next_col = list(itertools.accumulate(m.seats, initial=0))
    columns = {}
    for i, j in result.assignment.items():
        columns[i] = next_col[j]
        next_col[j] += 1
    return columns

"""Closed-form hitching plans for UAV-vehicle pairs.

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

Every plan comes from :func:`plan_matrix`, which plans many pairs at once
with numpy: eligibility, the deadline distance (one root solve), then
closed-form candidates capped by that distance, the battery cap and the
swap. A full battery takes no charge, so it rides any vehicle as a
ride-only one. The battery headroom is the battery model: a finite one
caps the charge, an infinite one does not. Each branch runs only on the
pairs that reach it, and a pair with no finite optimum is flagged rather
than raised. The one planning entry for one pair, :func:`plan_pair`, is a
0-d call of it at the task's own battery headroom that raises
:class:`UnboundedHitchError` on that flag, and :func:`select_vehicle` is
one call over its offers. A task's default battery is infinite, so it
plans the unbounded model.

The reference is the scalar decision chain in ``tests/oracles.py``
(``scalar_plan_pair``), which :func:`plan_matrix` reproduces bit for bit
wherever ``math.hypot`` is correctly rounded on the flight legs: every
element goes through the same floating-point operations in the same
order, and the transcendentals match the ``math`` functions: ``math.pow``
and ``math.acos`` are called per element, since numpy's ``square`` and
``arccos`` differ from them in the last bit on some inputs. cos(phi)
depends on the UAV speed, the vehicle speed and its charging rate only,
so it and its ``acos`` are computed on the broadcast of those operands
alone, not per pair: an operand that holds one value is taken once, and a
column of UAV speeds once per distinct speed, so ``acos`` sees at most
(distinct speeds) x J values. numpy's
``sin``, ``cos`` and ``sqrt`` are used directly, and the flight leg's
hypot is this module's own correctly rounded numpy function,
``_hypot``, which gives ``math.hypot``'s bits wherever that is correctly
rounded (``tests/test_plan_matrix.py`` checks all six against ``math``
here, and ``scripts/check_hypot.py`` checks ``_hypot`` against exact
arithmetic). CPython's ``math.hypot`` misrounds some subnormal results,
so a task with a subnormal distance ``x`` (such as 1e-310), whose flight
legs are subnormal, can plan to other bits than the reference: the
planner's are the correctly rounded ones.

Each formula is written once, in the array kernels ``_eligible`` (the
threshold angle, as a test angle: +inf where every direction pays, -inf
where the precondition fails), ``_max_hitch`` (the deadline root) and
``_objective`` (T, E and C). The one-pair helpers, from :func:`flight_leg`
to :func:`max_hitch_distance`, check their input and call them on one
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "consumption",
    "eligibility",
    "max_hitch_distance",
    "plan_pair",
    "UNBOUNDED_MESSAGE",
    "PlanArrays",
    "plan_matrix",
    "select_vehicle",
]


def _excess(u: float, d: float, x: float) -> float:
    """u*d - x rounded once: the product is taken exactly."""
    from fractions import Fraction  # on first use: importing it adds ms to start-up

    return float(Fraction(u) * Fraction(d) - Fraction(x))


# Every transcendental the kernels call, bound once. numpy's arccos differs
# from the C library's in the last bit on some inputs, and its square from
# ``pow(s, 2)``, so those go through ``math``, element by element.
# ``_hypot`` is this module's own, correctly rounded.
_acos = np.frompyfunc(math.acos, 1, 1)
_pow = np.frompyfunc(math.pow, 2, 1)
_excess_each = np.frompyfunc(_excess, 3, 1)
_sin = np.sin
_cos = np.cos
_sqrt = np.sqrt
_copysign = np.copysign

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TINY = 2.0 ** -1022  # the smallest normal float
_TIE = 2.0 ** -99  # a scaled residual this close to a midpoint is settled exactly


def _square(a, p, hi, err) -> None:
    """p + err = a*a exactly, written into ``p`` and ``err``: Dekker's
    two-product on Veltkamp's split of ``a`` into two 26-bit halves, hi +
    lo. ``a`` is overwritten with lo, and ``hi`` holds scratch."""
    np.multiply(a, a, out=p)
    np.multiply(a, _SPLIT, out=hi)
    np.subtract(hi, a, out=err)
    np.subtract(hi, err, out=hi)
    np.subtract(a, hi, out=a)
    np.multiply(hi, hi, out=err)
    np.subtract(err, p, out=err)
    np.multiply(hi, a, out=hi)
    np.add(err, hi, out=err)
    np.add(err, hi, out=err)
    np.multiply(a, a, out=a)
    np.add(err, a, out=err)


def _exact_hypot(a: float, b: float) -> float:
    """hypot(a, b) rounded once, from integers: the few elements
    :func:`_hypot` does not settle in floating point."""
    if math.isinf(a) or math.isinf(b):
        return math.inf  # even when the other is NaN
    if math.isnan(a) or math.isnan(b):
        return math.nan
    (na, da), (nb, db) = abs(a).as_integer_ratio(), abs(b).as_integer_ratio()
    d = max(da, db)  # a power of two, as da and db are
    n = (na * (d // da)) ** 2 + (nb * (d // db)) ** 2  # (a^2 + b^2) d^2
    # A root of 55 bits or more, with a sticky last bit if it is inexact,
    # rounds as the exact one does.
    shift = max(0, 55 - n.bit_length() // 2)
    n <<= 2 * shift
    root = math.isqrt(n)
    try:
        return (2 * root + (root * root != n)) / (d << shift + 1)  # int / int rounds once
    except OverflowError:
        return math.inf


_exact_hypot_each = np.frompyfunc(_exact_hypot, 2, 1)


def _hypot(x, y):
    """sqrt(x*x + y*y) correctly rounded, element by element, for float
    arrays of one shape and at least one dimension: the bits of
    ``math.hypot`` wherever that is correctly rounded (it is not on some
    subnormal results and exact midpoints). An infinity beats NaN, and no
    RuntimeWarning is raised.

    After scaling by 2**-e, the larger magnitude is in [0.5, 1), nothing
    overflows and the two-products are exact (a smaller one that underflows
    is far below the last bit of the result). ``h``, the rounded root of
    the rounded sum of squares, is within one ulp of the correctly rounded
    root, so the residual r = x^2 + y^2 - h^2 settles it: past the midpoint
    to the next float up exactly when r > h*ulp + ulp^2/4, and likewise
    down (Borges, "An Improved Algorithm for hypot(a,b)", arXiv:1904.09481).
    r is within 2**-100 of exact; where it is within ``_TIE`` of a
    midpoint, and for zero, subnormal, infinite or NaN input, the element
    is computed from integers instead.

    Every step writes into one workspace of eight rows: with a new array
    per step, each saving-matrix build of a 200 x 200 limited fleet took
    about 1,000 more page faults, which cost more than the arithmetic.
    """
    w = np.empty((8, *np.shape(x)))
    np.abs(x, out=w[0])
    np.abs(y, out=w[1])
    big, small = w[2], w[3]
    np.maximum(w[0], w[1], out=big)
    np.minimum(w[0], w[1], out=small)
    odd = None
    if not (big.min(initial=math.inf) >= _TINY and big.max(initial=0.0) < math.inf):
        odd = ~((big >= _TINY) & (big < math.inf))
        big[odd], small[odd] = 1.0, 0.0
    e = np.frexp(big, out=(big, None))[1]
    np.negative(e, out=e)
    np.ldexp(small, e, out=small)
    _square(w[2:4], w[0:2], w[4:6], w[6:8])
    a1, b1, s, h_lo, scratch, _, a2, b2 = w  # big^2 = a1 + a2, small^2 = b1 + b2
    np.add(a1, b1, out=s)
    np.subtract(s, a1, out=a1)
    np.subtract(b1, a1, out=b1)  # the error of s, exactly
    np.add(a2, b2, out=a2)
    np.add(b1, a2, out=b1)  # the error terms but h's
    h = _sqrt(s)
    np.copyto(h_lo, h)
    _square(h_lo, a1, scratch, a2)  # h^2 = a1 + a2
    np.subtract(s, a1, out=s)  # exact (Sterbenz)
    np.subtract(b1, a2, out=b1)
    r = np.add(s, b1, out=s)
    # The floats next to h, from its bits, and how far past the midpoints
    # to them r is (both products are exact).
    above, below = w[3:5].view(np.int64)
    np.add(h.view(np.int64), 1, out=above)
    np.subtract(h.view(np.int64), 1, out=below)
    above, below = above.view(np.float64), below.view(np.float64)
    past_up, past_down = w[6], w[7]
    np.subtract(above, h, out=past_up)
    np.multiply(past_up, h, out=past_up)
    np.subtract(r, past_up, out=past_up)
    np.subtract(h, below, out=past_down)
    np.multiply(past_down, h, out=past_down)
    np.add(r, past_down, out=past_down)
    np.copyto(h, below, where=past_down < 0.0)
    np.copyto(h, above, where=past_up > 0.0)
    np.negative(e, out=e)
    with np.errstate(over="ignore"):  # a result past the float range is inf
        np.ldexp(h, e, out=h)
    gap = np.minimum(np.abs(past_up, out=past_up), np.abs(past_down, out=past_down), out=past_up)
    if gap.min(initial=math.inf) <= _TIE:
        odd = gap <= _TIE if odd is None else odd | (gap <= _TIE)
    if odd is not None:
        h[odd] = _exact_hypot_each(x[odd], y[odd])
    return h


def _each(*values) -> np.ndarray:
    """Each value as a one-element float64 array: a one-pair kernel call."""
    return np.array(values, dtype=np.float64).reshape(len(values), 1)


def _eligible(omega: float, tol: float, u, v, rate):
    """The test angle of :func:`eligibility` at weighted charging rates
    ``rate`` (omega times gamma), on the broadcast of ``u``, ``v`` and
    ``rate``: +inf where every direction pays, -inf where the precondition
    fails, and the threshold angle phi elsewhere. A pair at angle theta is
    eligible exactly when theta < angle - tol.

    The angle depends on the UAV speed and the vehicle only, so
    :func:`plan_matrix` calls this on those operands' own axes, not on
    every pair, and ``math.acos`` runs once per element of them."""
    ratio = v / u
    passes = rate > 1.0 - omega - ratio + tol
    m = passes & (rate < 1.0 - omega + ratio)
    angle = np.where(passes, math.inf, -math.inf)
    with np.errstate(over="ignore"):  # only the entries in m are read
        cos_phi = (1.0 - omega - rate) * u / v
    angle[m] = _acos(np.minimum(1.0, np.maximum(-1.0, cos_phi[m]))).astype(np.float64)
    return angle


def _max_hitch(x, u, d, v, theta):
    """:func:`max_hitch_distance` for pairs with finite deadlines ``d``."""
    cos_t = _cos(theta)
    a = 1.0 - (u * u) / (v * v)
    b = 2.0 * d * u * u / v - 2.0 * x * cos_t
    c = x * x - u * u * d * d
    vd = v * d
    slack = 1e-12 * np.where(vd > 1.0, vd, 1.0)
    best = np.zeros(x.size)

    def candidate(m, y):
        # best = max(best, min(max(y, 0), v*d)) where y is in the window
        fits = (-slack[m] <= y) & (y <= vd[m] + slack[m])
        y = np.where(0.0 > y, 0.0, y)
        y = np.where(vd[m] < y, vd[m], y)
        better = fits & (y > best[m])
        best[m[better]] = y[better]

    m = (a == 0.0).nonzero()[0]
    if m.size:
        # u = v, so T(y) >= y/u + (x - y)/u = x/u for every y: no ride meets
        # a deadline below x/u, and at D = x/u only riding straight ahead
        # does, where T is flat at D on [0, x]. Near there uD - x is as small
        # as the rounding error of u*D, so it comes from the exact product.
        xm, excess = x[m], _excess_each(u[m], d[m], x[m]).astype(np.float64)
        flat = (excess == 0.0) & (theta[m] == 0.0)
        best[m[flat]] = xm[flat]
        ride = excess > 0.0
        m, xm, excess = m[ride], xm[ride], excess[ride]
        # The root is (uD - x)(uD + x) / (2 [(uD - x) + x (1 - cos)]). Both
        # bracketed terms are nonnegative, so the sum never cancels; the
        # naive -c/b form is 0/0 noise when theta ~ 0, D ~ x/u.
        half = _pow(_sin(theta[m] / 2.0), 2.0).astype(np.float64)
        denom = 2.0 * (excess + xm * 2.0 * half)
        candidate(m, excess * (u[m] * d[m] + xm) / denom)
    m = (a != 0.0).nonzero()[0]
    if m.size:
        a, b, c = a[m], b[m], c[m]
        disc = b * b - 4.0 * a * c
        root = _sqrt(np.where(0.0 > disc, 0.0, disc))
        # Stable split: q/a and c/q avoid cancellation when |a| is tiny.
        q = np.where(b != 0.0, -0.5 * (b + _copysign(root, b)), 0.5 * root)
        candidate(m, q / a)
        nz = (q != 0.0).nonzero()[0]
        candidate(m[nz], c[nz] / q[nz])
    return best


def _flight(x, theta, y):
    """:func:`flight_leg`, element by element."""
    return _hypot(y - x * _cos(theta), x * _sin(theta))


def _objective(omega: float, x, u, v, gamma, theta, y, headroom):
    """(T, E, C) at riding distances ``y``, the charge capped at
    ``headroom`` (None: uncapped) and C weighted by ``omega``."""
    flight = _flight(x, theta, y) / u
    charge = (gamma / v) * y
    if headroom is not None:
        charge = np.where(charge < headroom, charge, headroom)
    t = y / v + flight
    e = flight - charge
    return t, e, omega * e + (1.0 - omega) * t


def flight_leg(x: float, theta: float, y: float) -> float:
    """Length of the flight from the drop-off point to the destination.

    Evaluated as hypot(y - x*cos(theta), x*sin(theta)), which is exact for
    theta = 0 (|x - y|) and never suffers cancellation under the root.
    """
    return float(_flight(*_each(x, theta, y))[0])


def _evaluate(
    task: UavTask,
    offer: VehicleOffer,
    geom: PairGeometry,
    y: float,
    headroom: float,
    omega: float = 0.0,
) -> tuple[float, float, float]:
    """(T, E, C) at riding distance y, from a one-element :func:`_objective` call.

    The charge saturates at ``headroom`` (0: ride-only; infinite: the
    unbounded battery, uncapped, where a swap has no finite energy). C is
    weighted by ``omega``.
    """
    if not 0.0 <= y < math.inf:
        raise ValueError(f"hitch distance y must be finite and >= 0, got {y}")
    unbounded = math.isinf(headroom)
    if math.isinf(offer.gamma) and unbounded:
        raise ValueError("energy is undefined for battery-swap offers (gamma=inf)")
    # No ride takes no charge; a zero rate also keeps inf * 0 out of it.
    gamma = 0.0 if y == 0.0 else offer.gamma
    args = _each(task.x, task.u, offer.v, gamma, geom.theta, y)
    t, e, c = _objective(omega, *args, None if unbounded else np.array([headroom]))
    return float(t[0]), float(e[0]), float(c[0])


def travel_time(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    """Total trip duration: riding time y/v plus flight time F(y)/u."""
    # T does not depend on charging, so evaluate it ride-only: that accepts swaps.
    return _evaluate(task, offer, geom, y, 0.0)[0]


def energy(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    """Net energy use: flight burn minus charge, the charge capped at the
    task's battery headroom.

    Negative values mean the UAV lands with more energy than it started
    with. A battery-swap offer (infinite gamma) has no finite energy on an
    unbounded battery; :func:`plan_pair` plans it.
    """
    return _evaluate(task, offer, geom, y, task.battery_headroom)[1]


def consumption(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float
) -> float:
    """Weighted objective omega*E + (1 - omega)*T at riding distance y."""
    return _evaluate(task, offer, geom, y, task.battery_headroom, cfg.omega)[2]


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
    omega, gamma = cfg.omega, offer.gamma
    # With omega = 0 the charging term never enters the objective, so an
    # infinite rate contributes nothing; otherwise inf * omega = inf.
    rate = omega * gamma if math.isfinite(gamma) else (math.inf if omega > 0.0 else 0.0)
    angle = float(_eligible(omega, cfg.tol, *_each(task.u, offer.v, rate))[0])
    if angle == -math.inf:
        # A charge with no weight in the objective cannot be at fault.
        reason = (
            EligibilityReason.SPEED_TOO_LOW if rate == 0.0 else EligibilityReason.CHARGE_TOO_LOW
        )
        return Eligibility(False, reason, None)
    ok = bool(geom.theta < angle - cfg.tol)
    reason = EligibilityReason.ELIGIBLE if ok else EligibilityReason.ANGLE_TOO_WIDE
    return Eligibility(ok, reason, min(angle, math.pi))


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
    return float(_max_hitch(*_each(task.x, task.u, task.deadline, offer.v, geom.theta))[0])


# Why a pair has no finite optimum; plan_pair and select_vehicle raise it,
# and the saving-matrix build and the sweep prefix the pair or point at fault.
UNBOUNDED_MESSAGE = (
    "consumption decreases with distance for this offer; a bounded deadline is required"
)


# Binding of each code in ``PlanArrays.binding``.
_BINDINGS = (Binding.INTERIOR, Binding.DEADLINE, Binding.BATTERY_FULL, Binding.NO_HITCH)
_INTERIOR, _DEADLINE, _BATTERY_FULL, _NO_HITCH = range(len(_BINDINGS))


@dataclass(frozen=True)
class PlanArrays:
    """Plans of many pairs, one array element per pair.

    The float fields hold what :class:`HitchPlan` holds; ``binding`` is
    each pair's :class:`Binding` as a small integer code and ``swap`` its
    ``swap_and_depart`` flag. ``unbounded`` marks the pairs with no finite
    optimum, for which :func:`plan_pair` and :func:`select_vehicle` raise
    :class:`UnboundedHitchError`; their other fields are meaningless.
    """

    y_star: np.ndarray
    total_time: np.ndarray
    energy: np.ndarray
    consumption: np.ndarray
    saving: np.ndarray
    binding: np.ndarray
    swap: np.ndarray
    unbounded: np.ndarray

    def plan(self, index) -> HitchPlan:
        """The :class:`HitchPlan` of one pair, with Python float fields."""
        return HitchPlan(
            float(self.y_star[index]),
            float(self.total_time[index]),
            float(self.energy[index]),
            float(self.consumption[index]),
            float(self.saving[index]),
            _BINDINGS[self.binding[index]],
            bool(self.swap[index]),
        )


_BLOCK = 8192


def _spread(a: np.ndarray, shape) -> np.ndarray:
    """``a`` broadcast to ``shape``, flat; faster than np.broadcast_arrays
    on small grids."""
    if a.shape != shape:
        grid = np.empty(shape)
        grid[...] = a
        a = grid
    return a.reshape(-1)


def _once(a: np.ndarray) -> np.ndarray:
    """``a``'s one value as a 0-d array where all its entries have the same
    bits, else ``a``."""
    bits = a.view(np.int64)
    return a.reshape(-1)[:1].reshape(()) if a.size and (bits == bits.flat[0]).all() else a


class _Pairs:
    """The flat inputs of :func:`plan_matrix` and the plans written so far.

    Each method transcribes one function of the scalar reference chain in
    ``tests/oracles.py`` for the pairs ``k`` (an index array), with every
    element going through that function's operations in the same order,
    in the module's kernels. The plans start as no-hitch plans; each
    pair's final plan is written once.
    """

    def __init__(self, cfg: PlannerConfig, shape, x, u, v, gamma, theta, deadline, headroom) -> None:
        self.omega, self.tol, self.shape = cfg.omega, cfg.tol, shape
        # The test angles' operands on their own axes, before the broadcast:
        # an operand whose entries all share their bits is taken once, and a
        # column of UAV speeds once per distinct speed, its rows gathered
        # back by ``rows``.
        self.own_u, self.own_v, self.own_gamma = (_once(a) for a in (u, v, gamma))
        self.rows = None
        if self.own_u.shape[1:] == (1,) and all(
            a.ndim < 2 or a.shape[-2] == 1 for a in (self.own_v, self.own_gamma)
        ):
            distinct, self.rows = np.unique(u.reshape(-1).view(np.int64), return_inverse=True)
            self.own_u = distinct.view(np.float64)[:, None]
        x, u, v, gamma, theta, deadline, headroom = (
            _spread(a, shape) for a in (x, u, v, gamma, theta, deadline, headroom)
        )
        self.x, self.u, self.v, self.gamma, self.theta = x, u, v, gamma, theta
        self.deadline, self.headroom = deadline, headroom
        self.base = x / u
        n = x.size
        self.y_star, self.saving = np.zeros(n), np.zeros(n)
        self.total_time, self.energy, self.consumption = (self.base.copy() for _ in range(3))
        self.binding = np.full(n, _NO_HITCH, dtype=np.int8)
        self.swap = np.zeros(n, dtype=bool)
        self.unbounded = np.zeros(n, dtype=bool)

    def _angles(self, rate) -> np.ndarray:
        """Each pair's test angle at weighted charging rates ``rate``,
        computed on the threshold's own operands and spread over the pairs."""
        angle = _eligible(self.omega, self.tol, self.own_u, self.own_v, rate)
        if self.rows is not None:
            angle = angle[..., self.rows, :]
        return _spread(angle, self.shape)

    @cached_property
    def charged(self) -> np.ndarray:
        """Each pair's test angle at its offer's weighted charging rate
        (omega times gamma; a swap offer's entry is never read)."""
        gamma = self.own_gamma
        return self._angles(self.omega * np.where(np.isinf(gamma), 0.0, gamma))

    @cached_property
    def ride_only(self) -> np.ndarray:
        """Each pair's test angle with no charge: ride-only, or after a swap."""
        return self._angles(0.0)

    def arrays(self) -> PlanArrays:
        fields = (self.y_star, self.total_time, self.energy, self.consumption, self.saving,
                  self.binding, self.swap, self.unbounded)
        return PlanArrays(*(a.reshape(self.shape) for a in fields))

    def write(self, k, plan) -> None:
        (self.y_star[k], self.total_time[k], self.energy[k], self.consumption[k],
         self.saving[k], self.binding[k]) = plan

    def eligible(self, k, angles):
        """``scalar_eligibility`` on the test angles ``angles`` (``charged``
        or ``ride_only``): the positions in ``k`` of the eligible pairs and
        their threshold angles, +inf where every direction pays."""
        angle = angles[k]
        ok = (self.theta[k] < angle - self.tol).nonzero()[0]
        return ok, angle[ok]

    def deadline_cap(self, k):
        """``scalar_deadline_cap``: inf for an unbounded deadline, else the
        largest riding distance that meets it."""
        y = np.full(k.size, math.inf)
        m = np.isfinite(self.deadline[k]).nonzero()[0]
        if m.size:
            k = k[m]
            y[m] = _max_hitch(self.x[k], self.u[k], self.deadline[k], self.v[k], self.theta[k])
        return y

    def eligible_plan(self, k, phi, y_deadline):
        """``scalar_eligible_plan`` up to ``scalar_finish_plan``: the riding
        distance and binding, and which pairs have no finite optimum."""
        y = y_deadline.copy()
        binding = np.full(k.size, _DEADLINE, dtype=np.int8)
        interior = phi < math.pi
        m = interior.nonzero()[0]
        km = k[m]
        y_interior = self.x[km] * _sin(phi[m] - self.theta[km]) / _sin(phi[m])
        inside = y_interior <= y_deadline[m]
        y[m[inside]] = y_interior[inside]
        binding[m[inside]] = _INTERIOR
        return y, binding, ~interior & np.isinf(y_deadline)

    def finish(self, k, y, binding, headroom=None):
        """``scalar_finish_plan`` with the charge capped at ``headroom`` (None:
        uncapped): the positions in ``k`` of the pairs that hitch and their
        (y, T, E, C, saving, binding). The others stay no-hitch."""
        hit = (y > 0.0).nonzero()[0]
        k, y = k[hit], y[hit]
        if headroom is not None:
            headroom = headroom[hit]
        t, e, c = _objective(self.omega, self.x[k], self.u[k], self.v[k], self.gamma[k],
                             self.theta[k], y, headroom)
        saving = self.base[k] - c
        ok = (saving > 0.0).nonzero()[0]
        return hit[ok], (y[ok], t[ok], e[ok], c[ok], saving[ok], binding[hit[ok]])

    def plan_offer(self, k) -> None:
        """``scalar_optimal_distance``, at the offer's finite charging rate."""
        ok, phi = self.eligible(k, self.charged)
        k = k[ok]
        y, binding, unbounded = self.eligible_plan(k, phi, self.deadline_cap(k))
        self.unbounded[k[unbounded]] = True
        m = (~unbounded).nonzero()[0]
        hit, plan = self.finish(k[m], y[m], binding[m])
        self.write(k[m[hit]], plan)

    def plan_swap(self, k) -> None:
        """``scalar_battery_swap_plan``: ride-only after the swap."""
        ok, phi = self.eligible(k, self.ride_only)
        self.swap[k] = True
        k = k[ok]
        self.swap[k] = False
        y, binding, _ = self.eligible_plan(k, phi, self.deadline_cap(k))
        hit, plan = self.finish(k, y, binding, np.zeros(k.size))
        self.write(k[hit], plan)

    def plan_capped(self, k) -> None:
        """``scalar_optimal_distance_limited`` for a finite positive
        charging rate and a finite battery headroom."""
        ok, phi = self.eligible(k, self.charged)
        k = k[ok]
        y_deadline = self.deadline_cap(k)
        headroom = self.headroom[k]
        y_cap = headroom * self.v[k] / self.gamma[k]

        # The ride-only candidate, evaluated with no charge.
        ride, ride_phi = self.eligible(k, self.ride_only)
        y, binding, _ = self.eligible_plan(k[ride], ride_phi, y_deadline[ride])
        hit, plan = self.finish(k[ride], y, binding, np.zeros(ride.size))
        ho_y = np.zeros(k.size)
        ho_binding = np.full(k.size, _NO_HITCH, dtype=np.int8)
        ho_y[ride[hit]], ho_binding[ride[hit]] = plan[0], plan[5]
        ride_ok = np.zeros(k.size, dtype=bool)
        ride_ok[ride] = True
        # Fully charged before the ride-only optimum: keep riding to it.
        keep_riding = ride_ok & (y_cap <= ho_y)
        m = keep_riding.nonzero()[0]
        hit, plan = self.finish(k[m], ho_y[m], ho_binding[m], headroom[m])
        self.write(k[m[hit]], plan)
        # Otherwise a full battery on which riding alone does not pay stays
        # no-hitch, and the rest compare the unbounded-battery optimum,
        # where it is finite, with the cap distance.
        rest = ~keep_riding & (ride_ok | ~(y_cap <= 0.0))
        m = (rest & ((phi < math.pi) | np.isfinite(y_deadline))).nonzero()[0]
        y, binding, _ = self.eligible_plan(k[m], phi[m], y_deadline[m])
        hit, plan = self.finish(k[m], y, binding)
        full_y = np.zeros(m.size)
        full_y[hit] = plan[0]
        take = y_cap[m] >= full_y
        chosen = take[hit]
        self.write(k[m[hit[chosen]]], tuple(a[chosen] for a in plan))
        rest[m[take]] = False
        # Full before the unbounded-battery optimum: ride to the cap.
        m = rest.nonzero()[0]
        binding = np.full(m.size, _BATTERY_FULL, dtype=np.int8)
        hit, plan = self.finish(k[m], y_cap[m], binding, headroom[m])
        self.write(k[m[hit]], plan)


def plan_matrix(
    cfg: PlannerConfig,
    x,
    u,
    v,
    gamma,
    theta,
    deadline=math.inf,
    headroom=math.inf,
) -> PlanArrays:
    """The plan of every pair at once.

    ``x``, ``u``, ``deadline``, ``headroom`` (per UAV: the battery's
    capacity minus its level), ``v``, ``gamma`` (per vehicle) and ``theta``
    (per pair) are arrays that broadcast together, for example shapes
    (I, 1), (J,) and (I, J); 0-d inputs plan one pair. A finite headroom
    caps the charge (the limited battery model); an infinite one (the
    default) is the unbounded battery, on which both models agree. Each
    branch (deadline, battery cap, swap) runs only on the pairs that reach
    it, in the same operations and order as the scalar reference, so the
    result holds its bits.
    """
    inputs = [np.asarray(a, dtype=np.float64) for a in (x, u, v, gamma, theta, deadline, headroom)]
    pairs = _Pairs(cfg, np.broadcast(*inputs).shape, *inputs)
    gamma = pairs.gamma
    swap = np.isinf(gamma)
    capped = ~swap & (gamma > 0.0) & np.isfinite(pairs.headroom)
    offer_rate = ~swap & ~capped
    # Blocks of pairs bound the memory the temporaries take: a 200x200
    # limited build peaked at 10.9 MB in one block and 6.4 MB in blocks of
    # 8192 pairs (tracemalloc), 0.64 MB of it the two test-angle arrays,
    # which is below what the per-pair plans used to take.
    for plan, mask in ((pairs.plan_offer, offer_rate), (pairs.plan_capped, capped),
                       (pairs.plan_swap, swap)):
        k = mask.nonzero()[0]
        for start in range(0, k.size, _BLOCK):
            plan(k[start:start + _BLOCK])
    return pairs.arrays()


def plan_pair(
    cfg: PlannerConfig, task: UavTask, offer: VehicleOffer, geom: PairGeometry
) -> HitchPlan:
    """Best riding distance for one pair, under the task's battery headroom.

    For an eligible vehicle the convex objective has the stationary point
    y = x*sin(phi - theta)/sin(phi), capped by the deadline. In the
    always-eligible regime (phi = pi) only the deadline stops the ride, so
    there an unbounded deadline raises :class:`UnboundedHitchError`.

    A finite headroom caps the charge. Once the battery is full, riding on
    behaves like a ride-only vehicle, so the optimum is one of three
    candidates, each capped by the deadline distance: the unbounded-battery
    optimum (cap never reached), the ride-only optimum (cap reached before
    it), or the cap distance. A swap offer (gamma = inf) is always worth
    meeting; after it the full battery makes riding on a ride-only
    decision: to the ride-only optimum if the direction qualifies, else
    depart at once. An infinite headroom (the default task) is the
    unbounded battery.
    """
    arrays = plan_matrix(
        cfg, task.x, task.u, offer.v, offer.gamma, geom.theta, task.deadline,
        task.battery_headroom,
    )
    if arrays.unbounded[()]:
        raise UnboundedHitchError(UNBOUNDED_MESSAGE)
    return arrays.plan(())


def select_vehicle(
    cfg: PlannerConfig,
    task: UavTask,
    offers: list[tuple[VehicleOffer, PairGeometry]],
) -> tuple[int, HitchPlan]:
    """Pick the offer with the lowest resulting consumption, each planned
    as :func:`plan_pair` plans it.

    Ties go to the lowest offer index.
    """
    if not offers:
        raise ValueError("select_vehicle needs at least one offer")
    arrays = plan_matrix(
        cfg,
        task.x,
        task.u,
        [offer.v for offer, _ in offers],
        [offer.gamma for offer, _ in offers],
        [geom.theta for _, geom in offers],
        task.deadline,
        task.battery_headroom,
    )
    if arrays.unbounded.any():
        raise UnboundedHitchError(UNBOUNDED_MESSAGE)
    best = int(np.argmin(arrays.consumption))  # the first minimum, as min() picks
    return best, arrays.plan(best)

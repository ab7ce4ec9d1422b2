"""Independent numeric oracles used by the test suite.

Nothing here goes through the closed-form planner paths: the consumption
minimizer is a dense grid plus golden-section refinement, and the deadline
inverse is a sign bisection on the travel-time function. Both only rely on
direct evaluation of the model formulas. ``scalar_msa_match`` keeps the
element-by-element form of the primal-dual matcher, which the vectorized
``msa_match`` must reproduce bit for bit.
"""

from __future__ import annotations

import math
import random

import numpy as np

from uavhitch import PairGeometry, PlannerConfig, UavTask, VehicleOffer

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


def travel_time_direct(task: UavTask, offer: VehicleOffer, geom: PairGeometry, y: float) -> float:
    flight = math.hypot(y - task.x * math.cos(geom.theta), task.x * math.sin(geom.theta))
    return y / offer.v + flight / task.u


def bisect_max_hitch(
    task: UavTask, offer: VehicleOffer, geom: PairGeometry, tol: float = 1e-12
) -> float:
    """Largest y with T(y) <= D by sign bisection on [0, v*D].

    T is convex with T(0) <= D and T(y) > D beyond v*D, so its sublevel
    set is an interval starting at 0 and bisection pins its right end.
    """
    d = task.deadline
    lo, hi = 0.0, offer.v * d
    if travel_time_direct(task, offer, geom, hi) <= d:
        return hi
    span = max(1.0, hi)
    while hi - lo > tol * span:
        mid = 0.5 * (lo + hi)
        if travel_time_direct(task, offer, geom, mid) <= d:
            lo = mid
        else:
            hi = mid
    return lo


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
    refined = golden_min(
        lambda y: float(consumption_direct(omega, task, offer, geom, y, limited)), lo, hi
    )
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


def scalar_msa_match(m) -> tuple:
    """The primal-dual max-saving loop over Python lists, one column at a
    time. Returns ``(sorted matched columns, iterations, p, q, total)``
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

"""Fleet-level assignment of UAVs to vehicles.

Builds the matrix of per-pair savings (baseline consumption minus the best
hitching consumption) and solves the maximum-weight bipartite matching with
a primal-dual method: per-UAV potentials ``p`` start at each row's best
saving, per-vehicle potentials ``q`` at zero, and alternating trees over
tight edges (p_i + q_j = w_ij) are grown until every UAV is either matched
or has p_i = 0. The final potentials certify optimality. Vehicles carrying
more than one UAV are expanded into identical virtual columns beforehand.

A greedy baseline and an exhaustive oracle are included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import (
    HitchPlan,
    PairGeometry,
    PlannerConfig,
    UavTask,
    UnboundedHitchError,
    VehicleOffer,
)
from .planner import plan_pair

__all__ = [
    "SavingMatrix",
    "MatchResult",
    "DualState",
    "BruteForceSizeError",
    "build_saving_matrix",
    "msa_match",
    "greedy_match",
    "brute_force_match",
    "verify_duals",
    "MAX_BRUTE_UAVS",
    "MAX_BRUTE_VEHICLES",
]

# Exhaustive search is kept for cross-checking small instances only.
MAX_BRUTE_UAVS = 8
MAX_BRUTE_VEHICLES = 8


class BruteForceSizeError(ValueError):
    """Instance is too large for the exhaustive matcher."""


@dataclass
class SavingMatrix:
    """Savings and plans for every UAV-column pair, capacity-expanded.

    ``weights[i][j]`` is the consumption saving of UAV ``i`` riding the
    vehicle behind expanded column ``j``; ``column_origin[j]`` maps the
    column back to the original vehicle. Columns duplicated from one
    vehicle carry identical weights.
    """

    n_uavs: int
    n_vehicles: int
    weights: list[list[float]]
    plans: list[list[HitchPlan]]
    column_origin: list[int]
    tol: float = 1e-9


@dataclass
class DualState:
    """Final potentials of the primal-dual solver."""

    p: list[float]
    q: list[float]


@dataclass
class MatchResult:
    """An assignment of UAVs to vehicles with its total saving.

    ``assignment`` maps UAV index to original vehicle index;
    ``matched_columns`` keeps the expanded-column view used by the dual
    certificate. ``iterations`` counts augmentation rounds of the
    primal-dual loop (zero for the other solvers).
    """

    assignment: dict[int, int]
    total_saving: float
    per_pair: list[tuple[int, int, HitchPlan]]
    matched_columns: dict[int, int] = field(default_factory=dict)
    duals: DualState | None = None
    iterations: int = 0


def build_saving_matrix(
    cfg: PlannerConfig,
    tasks: list[UavTask],
    offers: list[VehicleOffer],
    geoms: list[list[PairGeometry]],
    limited: bool = False,
) -> SavingMatrix:
    """Plan every pair and lay out the capacity-expanded saving matrix."""
    if len(geoms) != len(tasks):
        raise ValueError(f"geometry rows ({len(geoms)}) != number of UAVs ({len(tasks)})")
    for i, row in enumerate(geoms):
        if len(row) != len(offers):
            raise ValueError(
                f"geometry row {i} has {len(row)} entries for {len(offers)} vehicles"
            )

    pair_plans = []
    for i, task in enumerate(tasks):
        row = []
        for j, offer in enumerate(offers):
            try:
                row.append(plan_pair(cfg, task, offer, geoms[i][j], limited))
            except UnboundedHitchError as exc:
                raise UnboundedHitchError(f"uav {i}, vehicle {j}: {exc}") from exc
        pair_plans.append(row)
    pair_weights = [[max(0.0, plan.saving) for plan in row] for row in pair_plans]

    column_origin: list[int] = []
    for j, offer in enumerate(offers):
        column_origin.extend([j] * offer.capacity)

    weights = [[row[j] for j in column_origin] for row in pair_weights]
    plans = [[row[j] for j in column_origin] for row in pair_plans]
    return SavingMatrix(
        n_uavs=len(tasks),
        n_vehicles=len(column_origin),
        weights=weights,
        plans=plans,
        column_origin=column_origin,
        tol=cfg.tol,
    )


def _collect_result(
    m: SavingMatrix,
    match_row: list[int],
    duals: DualState | None = None,
    iterations: int = 0,
) -> MatchResult:
    assignment: dict[int, int] = {}
    matched_columns: dict[int, int] = {}
    per_pair: list[tuple[int, int, HitchPlan]] = []
    total = 0.0
    for i in range(m.n_uavs):
        j = match_row[i]
        if j < 0 or m.weights[i][j] <= m.tol:
            continue
        orig = m.column_origin[j]
        assignment[i] = orig
        matched_columns[i] = j
        per_pair.append((i, orig, m.plans[i][j]))
        total += m.weights[i][j]
    return MatchResult(
        assignment=assignment,
        total_saving=total,
        per_pair=per_pair,
        matched_columns=matched_columns,
        duals=duals,
        iterations=iterations,
    )


def msa_match(m: SavingMatrix) -> MatchResult:
    """Maximum-saving matching via the primal-dual tree-growing loop.

    Zero-saving edges are never traversed: a UAV whose best saving is zero
    keeps p_i = 0 and simply flies direct. Each round roots a tree at an
    unmatched UAV, lowers p on reached UAVs and raises q on reached
    vehicles by the minimum positive slack until either an augmenting path
    appears or some reached UAV's potential hits zero and that UAV drops
    out of the matching.
    """
    n_rows, n_cols = m.n_uavs, m.n_vehicles
    w = m.weights
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
            # Flip the alternating path back to the root.
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
                # A reached UAV ran out of potential: it leaves the
                # matching and the path back to the root is flipped.
                r0 = arg_row
                freed = match_row[r0]
                match_row[r0] = -1
                if freed != -1:
                    augment(freed)
                break

    return _collect_result(m, match_row, duals=DualState(p=p, q=q), iterations=iterations)


def greedy_match(m: SavingMatrix) -> MatchResult:
    """Baseline heuristic: each UAV in index order grabs the vehicle with
    the largest saving still available (lowest column on ties)."""
    match_row = [-1] * m.n_uavs
    col_used = [False] * m.n_vehicles
    for i in range(m.n_uavs):
        best = m.tol
        for j in range(m.n_vehicles):
            if not col_used[j] and m.weights[i][j] > best:
                best = m.weights[i][j]
                match_row[i] = j
        if match_row[i] != -1:
            col_used[match_row[i]] = True
    return _collect_result(m, match_row)


def brute_force_match(m: SavingMatrix) -> MatchResult:
    """Exact optimum by exhaustive search over capacity-respecting
    assignments. Guarded to small instances; duplicated columns of one
    vehicle are collapsed into a capacity counter."""
    n_orig = max(m.column_origin, default=-1) + 1
    if m.n_uavs > MAX_BRUTE_UAVS or n_orig > MAX_BRUTE_VEHICLES:
        raise BruteForceSizeError(
            f"instance {m.n_uavs} UAVs x {n_orig} vehicles exceeds the "
            f"{MAX_BRUTE_UAVS}x{MAX_BRUTE_VEHICLES} exhaustive-search guard"
        )

    cols_of: list[list[int]] = [[] for _ in range(n_orig)]
    for j, orig in enumerate(m.column_origin):
        cols_of[orig].append(j)
    for orig, cols in enumerate(cols_of):
        for j in cols[1:]:
            for i in range(m.n_uavs):
                if m.weights[i][j] != m.weights[i][cols[0]]:
                    raise ValueError(
                        f"expanded columns of vehicle {orig} carry different weights"
                    )

    caps0 = tuple(len(cols) for cols in cols_of)
    memo: dict[tuple[int, tuple[int, ...]], tuple[float, int]] = {}

    def best(i: int, caps: tuple[int, ...]) -> tuple[float, int]:
        """Best total from UAV i on; second element is the chosen vehicle
        (-1 for flying direct)."""
        if i == m.n_uavs:
            return 0.0, -1
        key = (i, caps)
        hit = memo.get(key)
        if hit is not None:
            return hit
        value, choice = best(i + 1, caps)[0], -1
        for orig in range(n_orig):
            if caps[orig] == 0:
                continue
            wij = m.weights[i][cols_of[orig][0]]
            if wij <= m.tol:
                continue
            sub = caps[:orig] + (caps[orig] - 1,) + caps[orig + 1 :]
            cand = wij + best(i + 1, sub)[0]
            if cand > value:
                value, choice = cand, orig
        memo[key] = (value, choice)
        return value, choice

    match_row = [-1] * m.n_uavs
    caps = caps0
    next_slot = [0] * n_orig
    for i in range(m.n_uavs):
        _, choice = best(i, caps)
        if choice != -1:
            match_row[i] = cols_of[choice][next_slot[choice]]
            next_slot[choice] += 1
            caps = caps[:choice] + (caps[choice] - 1,) + caps[choice + 1 :]
    return _collect_result(m, match_row)


def verify_duals(m: SavingMatrix, result: MatchResult, duals: DualState) -> bool:
    """Certify optimality of a matching from the solver's potentials.

    Checks dual feasibility (p_i + q_j >= w_ij), tightness of matched
    edges, nonnegativity of q, and complementary slackness: an unmatched
    UAV must have p_i = 0 and an unmatched column q_j = 0. All within tol.
    """
    tol = m.tol
    p, q = duals.p, duals.q
    if len(p) != m.n_uavs or len(q) != m.n_vehicles:
        return False
    matched_cols = set(result.matched_columns.values())
    for i in range(m.n_uavs):
        if p[i] < -tol:
            return False
        for j in range(m.n_vehicles):
            if p[i] + q[j] < m.weights[i][j] - tol:
                return False
    for j in range(m.n_vehicles):
        if q[j] < -tol:
            return False
        if j not in matched_cols and q[j] > tol:
            return False
    for i in range(m.n_uavs):
        j = result.matched_columns.get(i)
        if j is None:
            if p[i] > tol:
                return False
        else:
            if abs(p[i] + q[j] - m.weights[i][j]) > tol:
                return False
            if m.weights[i][j] <= tol:
                return False
    return True

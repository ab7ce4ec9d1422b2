"""Fleet-level assignment of UAVs to vehicles.

Builds the matrix of per-pair savings (baseline consumption minus the best
hitching consumption) and solves the maximum-weight bipartite matching with
a primal-dual method: per-UAV potentials ``p`` start at each row's best
saving, per-vehicle potentials ``q`` at zero, and alternating trees over
tight edges (p_i + q_j = w_ij) are grown until every UAV is either matched
or has p_i = 0. The final potentials certify optimality. Vehicles carrying
more than one UAV are expanded into identical virtual columns beforehand,
at most one per UAV: the solvers fill a vehicle's columns lowest index
first, so further seats would stay empty.

The saving matrix holds its expanded weights as one float64 array, checked
once when the matrix is made, and every solver and the certificate read
that array. Every scan over the columns is a numpy vector operation; in
the primal-dual solver each applies the same floating-point operations, in
the same order, as an element-by-element loop, so the potentials and the
matching are exactly those of that loop (``tests/oracles.py`` keeps it as
the reference).

A greedy baseline and an exhaustive oracle are included for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    ``weights[i, j]`` is the consumption saving of UAV ``i`` riding the
    vehicle behind expanded column ``j``; ``column_origin[j]`` maps the
    column back to the original vehicle. Columns duplicated from one
    vehicle carry identical weights.

    ``weights`` may be given as any nested sequence; it is stored as a
    float64 array of shape ``(n_uavs, n_vehicles)``. A wrong shape, a
    ``column_origin`` of the wrong length, or a weight that is negative or
    not finite raises ``ValueError`` naming the field (and the entry).
    """

    n_uavs: int
    n_vehicles: int
    weights: np.ndarray
    plans: list[list[HitchPlan]]
    column_origin: list[int]
    tol: float = 1e-9

    def __post_init__(self) -> None:
        shape = (self.n_uavs, self.n_vehicles)
        try:
            w = np.asarray(self.weights, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"weights: {exc}") from None
        if w.size == 0 and 0 in shape:
            w = w.reshape(shape)  # an empty list stands for any empty shape
        if w.shape != shape:
            raise ValueError(
                f"weights has shape {w.shape}, expected (n_uavs, n_vehicles) = {shape}"
            )
        if len(self.column_origin) != self.n_vehicles:
            raise ValueError(
                f"column_origin has {len(self.column_origin)} entries, "
                f"expected n_vehicles = {self.n_vehicles}"
            )
        bad = np.argwhere(~((w >= 0.0) & (w < np.inf)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"weights[{i}, {j}] = {float(w[i, j])!r}: a saving must be finite and >= 0"
            )
        self.weights = w


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
    pair_weights = np.array([[plan.saving for plan in row] for row in pair_plans])

    column_origin: list[int] = []
    for j, offer in enumerate(offers):
        column_origin.extend([j] * min(offer.capacity, len(tasks)))

    plans = [[row[j] for j in column_origin] for row in pair_plans]
    return SavingMatrix(
        n_uavs=len(tasks),
        n_vehicles=len(column_origin),
        weights=pair_weights.reshape(len(tasks), len(offers))[:, column_origin],
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
        if j < 0 or m.weights[i, j] <= m.tol:
            continue
        orig = m.column_origin[j]
        assignment[i] = orig
        matched_columns[i] = j
        per_pair.append((i, orig, m.plans[i][j]))
        total += float(m.weights[i, j])
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

    Each scan of a step is one numpy vector operation: the slack set-up
    and update of a row joining the tree, one arg-min over the column
    slacks and tree-row potentials together (a column wins a tie, and the
    lowest index wins within each part), and the shift of p, q and the
    slacks by eps. Only the path flip runs in Python. Every element goes
    through the same floating-point operations in the same order as an
    element-by-element loop, so p, q, the matching and the iteration
    count are bit-identical to that loop's.
    """
    n_rows, n_cols = m.n_uavs, m.n_vehicles
    tol = m.tol

    p = m.weights.max(axis=1, initial=0.0)
    # An edge at or below tol gets weight -inf, so its slack is +inf and
    # it never enters a tree.
    w = m.weights.copy()
    np.putmask(w, w <= tol, -np.inf)
    q = np.zeros(n_cols)
    match_row = [-1] * n_rows
    match_col = [-1] * n_cols
    iterations = 0

    # Per-tree state, reset at each root. ``limit`` is the column slacks
    # followed by the tree rows' potentials, each the distance the duals
    # may move before it triggers a step. Tree columns and rows outside
    # the tree hold +inf, so the arg-min skips them and ``limit -= eps``
    # leaves them there. ``q_open`` is q with +inf on tree columns, which
    # keeps them out of the slack update.
    limit = np.empty(n_cols + n_rows)
    slack = limit[:n_cols]
    p_tree = limit[n_cols:]
    q_open = np.empty(n_cols)
    in_tree_col = np.empty(n_cols, dtype=bool)
    slack_row = np.empty(n_cols, dtype=np.intp)
    prev_row = [-1] * n_cols

    def add_row(r: int) -> None:
        p_tree[r] = p[r]
        s = (p[r] + q_open) - w[r]
        better = s < slack  # strict: on a tie the earlier row keeps the column
        np.putmask(slack, better, s)
        np.putmask(slack_row, better, r)

    def augment(j: int) -> None:
        # Flip the alternating path back to the root.
        while j != -1:
            r = prev_row[j]
            j_next = match_row[r]
            match_row[r] = j
            match_col[j] = r
            j = j_next

    for root in range(n_rows):
        if p[root] <= tol:
            continue
        iterations += 1
        limit.fill(np.inf)
        in_tree_col.fill(False)
        q_open[:] = q

        add_row(root)
        while True:
            k = int(limit.argmin())
            eps = float(limit[k])
            if eps > 0.0:
                limit -= eps
                np.add(q, eps, out=q, where=in_tree_col)

            if k < n_cols:
                j = k
                prev_row[j] = int(slack_row[j])
                if match_col[j] == -1:
                    augment(j)
                    break
                in_tree_col[j] = True
                q_open[j] = np.inf
                slack[j] = np.inf
                add_row(match_col[j])
            else:
                # A reached UAV ran out of potential: it leaves the
                # matching and the path back to the root is flipped.
                r = k - n_cols
                freed = match_row[r]
                match_row[r] = -1
                if freed != -1:
                    augment(freed)
                break
        np.copyto(p, p_tree, where=p_tree < np.inf)

    duals = DualState(p=p.tolist(), q=q.tolist())
    return _collect_result(m, match_row, duals=duals, iterations=iterations)


def greedy_match(m: SavingMatrix) -> MatchResult:
    """Baseline heuristic: each UAV in index order grabs the vehicle with
    the largest saving still available (lowest column on ties)."""
    match_row = [-1] * m.n_uavs
    if m.n_vehicles:
        w = m.weights.copy()
        for i, row in enumerate(w):
            j = int(row.argmax())
            if row[j] > m.tol:
                match_row[i] = j
                w[:, j] = -np.inf  # taken
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
    first_col = [cols_of[orig][0] for orig in m.column_origin]
    differs = (m.weights != m.weights[:, first_col]).any(axis=0)
    if differs.any():
        orig = m.column_origin[int(differs.argmax())]
        raise ValueError(f"expanded columns of vehicle {orig} carry different weights")
    w = m.weights.tolist()

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
            wij = w[i][cols_of[orig][0]]
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
    if len(duals.p) != m.n_uavs or len(duals.q) != m.n_vehicles:
        return False
    p = np.array(duals.p, dtype=np.float64)
    q = np.array(duals.q, dtype=np.float64)
    w = m.weights
    rows = np.array(list(result.matched_columns.keys()), dtype=np.intp)
    cols = np.array(list(result.matched_columns.values()), dtype=np.intp)
    unmatched_row = np.ones(m.n_uavs, dtype=bool)
    unmatched_row[rows] = False
    unmatched_col = np.ones(m.n_vehicles, dtype=bool)
    unmatched_col[cols] = False
    w_matched = w[rows, cols]
    return not (
        (p < -tol).any()
        or (np.add.outer(p, q) < w - tol).any()
        or (q < -tol).any()
        or (q[unmatched_col] > tol).any()
        or (p[unmatched_row] > tol).any()
        or (abs(p[rows] + q[cols] - w_matched) > tol).any()
        or (w_matched <= tol).any()
    )

"""Fleet-level assignment of UAVs to vehicles.

Builds the matrix of per-pair savings (baseline consumption minus the best
hitching consumption) in one ``planner.plan_matrix`` call, naming the
first pair with no finite optimum from its flags, and solves the
maximum-saving assignment, vehicle j seating at most min(capacity_j, I)
UAVs, with a primal-dual method: per-UAV potentials ``p`` start at each
row's best saving, per-vehicle potentials ``q`` at zero, and alternating
trees over tight edges (p_i + q_j = w_ij) are grown, one column and one
seat count per vehicle, until every UAV is either matched or has p_i = 0
(:func:`msa_match` says how each tree step is taken). Where every vehicle
has one seat, each step applies the floating-point operations of the
element-by-element loop over expanded columns that ``tests/oracles.py``
keeps as the reference, in the same order, so the potentials and
matching are exactly its own.

The final potentials, one per UAV and one per vehicle, certify
optimality as the LP dual of the capacitated assignment (Ahuja, Magnanti
and Orlin, *Network Flows*, 1993, ch. 12). The matrix keeps the
``plan_matrix`` arrays of every (UAV, vehicle) pair as
``SavingMatrix.arrays``; ``uavhitch match`` reads the pairs it prints
from them in bulk, by the indices of ``MatchResult.assignment``, and
builds no ``HitchPlan``. A greedy baseline and an exhaustive oracle are
included for comparison.
"""

from __future__ import annotations

import functools
from bisect import insort
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .model import GEOMETRY_RULES, OFFER_RULES, TASK_RULES, TOL_RULES, HitchPlan, PlannerConfig
from .model import Rule, UavTask, UnboundedHitchError, VehicleOffer, _check
from .planner import UNBOUNDED_MESSAGE, PlanArrays, plan_matrix

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


def _float_array(
    name: str, value, shape: tuple[int, int], dims: str = "(n_uavs, n_vehicles)"
) -> np.ndarray:
    """``value``, any nested sequence, as a float64 array of ``shape``;
    ``dims`` names the expected shape in the error."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if a.size == 0 and 0 in shape:  # an empty list stands for any empty shape
        a = a.reshape(shape)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {dims} = {shape}")
    return a


def theta_array(theta, n_uavs: int, n_vehicles: int) -> np.ndarray:
    """``theta`` as a read-only float64 array of shape ``(n_uavs, n_vehicles)``.
    A wrong shape or an entry outside [0, pi], NaN included, raises
    ``ValueError``; the latter names the first such entry in row-major order."""
    a = _float_array("theta", theta, (n_uavs, n_vehicles))
    _check_arrays(GEOMETRY_RULES, SimpleNamespace(theta=a), ["theta"], "theta")
    return _read_only(a)


def _check_arrays(rules, columns, names, context: str | None) -> None:
    """Run model ``rules`` on ``columns``, whose fields ``names`` are
    equal-shaped arrays. The first entry in row-major order that breaks
    one raises the message of the first rule it breaks, from its fields as
    Python numbers, prefixed by ``context[index]: `` when a context is given."""
    with np.errstate(all="ignore"):
        ok = np.array([rule.ok(columns) for rule in rules], dtype=bool)
    if np.count_nonzero(ok) == ok.size:  # cheaper than ok.all() on small arrays
        return
    index = tuple(np.argwhere(~ok.all(axis=0))[0].tolist())
    entry = SimpleNamespace(**{name: getattr(columns, name).item(*index) for name in names})
    message = rules[ok[(slice(None), *index)].argmin()].message(entry)
    if context is not None:
        message = f"{context}[{','.join(map(str, index))}]: {message}"
    raise ValueError(message)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


class _Columns(Sequence):
    """A read-only sequence of model objects held as one read-only array
    per field (``x``, ``capacity``, ...); an item is made on read. Neither
    the arrays nor the attributes can change, so columns may be shared. It
    equals any list, tuple or columns of equal items, and its repr is the
    list's.

    The constructor takes one array or sequence per field, in the model's
    field order, and checks them once by the model's rule table
    (``rules``, with :func:`_check_arrays`). The float fields are the
    rows of one float64 array; an integer field is int64, or holds Python
    ints when one is past int64's range.
    """

    __slots__ = ()
    kind: type
    names: tuple[str, ...]  # the model's field names, in its order
    rules: tuple[Rule, ...]  # the model's field rules
    # The places of the float and the integer fields in ``names``.
    _float_at: tuple[int, ...]
    _integer_at: tuple[int, ...] = ()

    def __init__(self, *columns, context: str | None = None) -> None:
        if len(columns) != len(self.names):
            raise TypeError(f"{type(self).__name__} takes {len(self.names)} columns")
        self._fill(columns)
        _check_arrays(self.rules, self, self.names, context)

    def _fill(self, columns: Sequence) -> None:
        """Set the field arrays from ``columns``, one per field, unchecked."""
        floats = np.array([columns[k] for k in self._float_at], dtype=np.float64)
        floats.flags.writeable = False
        for k, row in zip(self._float_at, floats):
            object.__setattr__(self, self.names[k], row)
        for k in self._integer_at:
            try:
                a = np.asarray(columns[k], dtype=np.int64)
            except OverflowError:
                a = np.asarray(columns[k], dtype=object)
            object.__setattr__(self, self.names[k], _read_only(a))

    @classmethod
    def of(cls, items: Sequence) -> _Columns:
        """``items``, model objects or columns of this kind, as columns."""
        if isinstance(items, cls):
            return items
        return cls(*([getattr(item, name) for item in items] for name in cls.names))

    @classmethod
    def _concatenate(cls, parts: Sequence[_Columns]) -> _Columns:
        """The entries of ``parts``, columns of this kind, one after
        another. Each part was checked when it was made, so the result is
        not checked again."""
        new = object.__new__(cls)
        new._fill([np.concatenate(c) for c in zip(*(part.columns() for part in parts))])
        return new

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return type(self), self.columns()

    def columns(self) -> tuple[np.ndarray, ...]:
        """The column arrays, in the model's field order."""
        return tuple(getattr(self, name) for name in self.names)

    def __len__(self) -> int:
        return len(getattr(self, self.names[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(*(a[i] for a in self.columns()))
        return self.kind(*(a.item(i) for a in self.columns()))

    def __iter__(self):
        return map(self.kind, *(a.tolist() for a in self.columns()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _Columns)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class TaskColumns(_Columns):
    """``UavTask`` columns: ``x``, ``u``, ``deadline``,
    ``battery_capacity`` and ``battery_level``."""

    names = tuple(f.name for f in fields(UavTask))
    __slots__ = names
    kind = UavTask
    _float_at = tuple(range(len(names)))
    rules = TASK_RULES


class OfferColumns(_Columns):
    """``VehicleOffer`` columns: ``v``, ``gamma`` and ``capacity``."""

    names = tuple(f.name for f in fields(VehicleOffer))
    __slots__ = names
    kind = VehicleOffer
    _float_at, _integer_at = (0, 1), (2,)
    rules = OFFER_RULES


@dataclass
class SavingMatrix:
    """Savings and plans of every UAV-vehicle pair, with each vehicle's
    capacity and seats.

    ``saving[i, j]`` is the consumption saving of UAV ``i`` riding vehicle
    ``j``, which seats ``capacity[j]`` UAVs; ``seats[j]`` is
    min(capacity[j], n_uavs), since further seats would stay empty.
    ``arrays`` holds the :class:`PlanArrays` of the (I, J) pairs, one
    element per UAV-vehicle pair, or None for a matrix made from savings
    alone.

    The capacity-expanded view, read by the benchmark's tracer and no
    solver, is made on first read: vehicle ``j`` fills ``seats[j]``
    columns, lowest first; ``column_origin[c]`` is column ``c``'s vehicle,
    ``n_vehicles`` the column count, ``weights[:, c]`` is
    ``saving[:, column_origin[c]]`` (``saving`` itself when every vehicle
    has one column) and ``plans[i][c]`` the plan of UAV ``i`` on column
    ``c`` (None without ``arrays``).

    ``saving`` may be given as any nested sequence; it is stored as a
    float64 array with one column per vehicle. ``tol`` defaults to
    ``PlannerConfig``'s and is checked by its rules, ``model.TOL_RULES``.
    A bad ``tol``, a wrong shape, a capacity that breaks
    ``VehicleOffer``'s capacity rule, or a saving that is negative or not
    finite raises ``ValueError`` naming the field (and the entry).
    """

    saving: np.ndarray
    capacity: Sequence[int]
    tol: float = PlannerConfig.tol
    arrays: PlanArrays | None = None
    n_uavs: int = field(init=False)
    seats: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self._check_and_seat(_capacities)

    @classmethod
    def _of_offers(
        cls, saving: np.ndarray, offers: OfferColumns, tol: float, arrays: PlanArrays
    ) -> SavingMatrix:
        """The matrix of a build: ``offers``' capacities were checked by
        the same capacity row when the columns were made, and are not
        checked again; every other field is."""
        m = object.__new__(cls)
        m.saving, m.capacity, m.tol, m.arrays = saving, offers.capacity, tol, arrays
        m._check_and_seat(np.ndarray.tolist)
        return m

    def _check_and_seat(self, capacities: Callable[[Sequence], list[int]]) -> None:
        """Check the fields, with ``capacities`` turning ``capacity`` into
        checked Python ints, store them and seat the UAVs."""
        _check(self, TOL_RULES)
        shape = (len(self.saving), len(self.capacity))
        s = _float_array("saving", self.saving, shape, "(rows, len(capacity))")
        capacity = capacities(self.capacity)
        ok = (s >= 0.0) & (s < np.inf)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(
                f"saving[{i}, {j}] = {float(s[i, j])!r}: a saving must be finite and >= 0"
            )
        self.saving, self.capacity = s, capacity
        self._seat(shape[0])

    def _seat(self, n: int) -> None:
        """Seat ``n`` UAVs: set ``n_uavs`` and ``seats``."""
        self.n_uavs, self.seats = n, [c if c < n else n for c in self.capacity]

    @functools.cached_property
    def column_origin(self) -> list[int]:
        return np.repeat(np.arange(len(self.seats)), self.seats).tolist()

    @functools.cached_property
    def n_vehicles(self) -> int:
        return len(self.column_origin)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        s = self.saving
        return s if self.n_vehicles == s.shape[1] else s[:, self.column_origin]

    @functools.cached_property
    def plans(self) -> list[list[HitchPlan]] | None:
        a = self.arrays
        if a is None:
            return None
        pairs = [[a.plan((i, j)) for j in range(len(self.seats))] for i in range(self.n_uavs)]
        return [[row[j] for j in self.column_origin] for row in pairs]

    def _rows(self, start: int, stop: int) -> SavingMatrix:
        """UAVs ``start`` to ``stop`` as a matrix of their own, with their
        own seats, on a view of these already checked savings; its
        ``arrays`` is None."""
        m = object.__new__(SavingMatrix)
        m.saving, m.capacity, m.tol = self.saving[start:stop], self.capacity, self.tol
        m.arrays = None
        m._seat(stop - start)
        return m


def _leading_integers(values: Sequence) -> int:
    """How many of ``values`` come before the first that is not an integer
    (Python's or numpy's; a bool is not one)."""
    def integer(t: type) -> bool:
        return issubclass(t, (int, np.integer)) and t is not bool
    if all(map(integer, set(map(type, values)))):  # one pass over the types
        return len(values)
    return next(j for j, v in enumerate(values) if not integer(type(v)))


def _capacities(capacity: Sequence) -> list[int]:
    """``capacity`` as Python ints, checked by ``VehicleOffer``'s capacity
    row: the first entry below 1, or not an integer (the matrix's own type
    check, as ``VehicleOffer`` has its own), raises that row's message
    after ``capacity[j]: ``."""
    n = _leading_integers(capacity)
    ints, rows = list(map(int, capacity[:n])), OFFER_RULES[-1:]
    _check_arrays(rows, SimpleNamespace(capacity=np.asarray(ints)), ["capacity"], "capacity")
    if n < len(capacity):
        raise ValueError(f"capacity[{n}]: {rows[0].message(SimpleNamespace(capacity=capacity[n]))}")
    return ints


@dataclass
class DualState:
    """Final potentials of the primal-dual solver: ``p`` per UAV, and
    ``q`` each vehicle's once per seat, the expanded view's columns."""

    p: list[float]
    q: list[float]


@dataclass
class MatchResult:
    """An assignment of UAVs to vehicles with its total saving.

    ``assignment`` maps UAV index to vehicle index, in UAV order; its keys
    and values index ``SavingMatrix.arrays`` for the matched pairs' plans.
    ``iterations`` counts augmentation rounds of the primal-dual loop (zero
    for the other solvers).
    """

    assignment: dict[int, int]
    total_saving: float
    duals: DualState | None = None
    iterations: int = 0


def build_saving_matrix(
    cfg: PlannerConfig,
    tasks: Sequence[UavTask],
    offers: Sequence[VehicleOffer],
    theta,
    limited: bool = False,
) -> SavingMatrix:
    """Plan every pair and lay out the saving matrix.

    ``tasks`` and ``offers`` are :class:`TaskColumns` and
    :class:`OfferColumns`, as a ``Scenario`` holds them, whose arrays are
    read as they are, or sequences of model objects, gathered into columns
    first. ``theta[i][j]``, an (I, J) array or nested sequence, is the
    direction deviation of UAV ``i`` and vehicle ``j``. Every pair is
    planned by one :func:`plan_matrix` call; ``limited`` hands it each
    UAV's battery headroom, else an infinite one. A pair with no finite
    optimum raises :class:`UnboundedHitchError` naming it, the first such
    pair in row-major order.
    """
    tasks, offers = TaskColumns.of(tasks), OfferColumns.of(offers)
    theta = theta_array(theta, len(tasks), len(offers))
    return _build_checked(cfg, tasks, offers, theta, limited)


def _build_checked(
    cfg: PlannerConfig,
    tasks: TaskColumns,
    offers: OfferColumns,
    theta: np.ndarray,
    limited: bool = False,
) -> SavingMatrix:
    """:func:`build_saving_matrix` on columns and an (I, J) float64
    ``theta`` that were already checked, as a ``Scenario`` holds them; it
    checks none of them again."""
    headroom = (tasks.battery_capacity - tasks.battery_level)[:, None] if limited else np.inf
    arrays = plan_matrix(
        cfg, tasks.x[:, None], tasks.u[:, None], offers.v, offers.gamma, theta,
        tasks.deadline[:, None], headroom,
    )

    if arrays.unbounded.any():
        i, j = np.argwhere(arrays.unbounded)[0]
        raise UnboundedHitchError(f"uav {i}, vehicle {j}: {UNBOUNDED_MESSAGE}")

    return SavingMatrix._of_offers(arrays.saving, offers, cfg.tol, arrays)


def _collect_result(
    m: SavingMatrix, match_row: list[int], duals: DualState | None = None, iterations: int = 0
) -> MatchResult:
    """The result of ``match_row``, each UAV's vehicle or -1."""
    rows = [i for i, j in enumerate(match_row) if j >= 0]
    cols = [match_row[i] for i in rows]
    saving = m.saving[np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)].tolist()
    assignment, total, tol = {}, 0.0, m.tol
    for i, j, w in zip(rows, cols, saving):
        if w > tol:
            assignment[i] = j
            total += w
    return MatchResult(assignment, total, duals, iterations)


def _flip_path(j, n, log, reached_by, n_cols, match_row, riders) -> None:
    """Seat the row that reached column ``j``, then refill the seat it left,
    back to the root. ``log`` holds the tree's first ``n`` step masks, one
    row of ``n_cols`` bytes each, and the row that reached ``j`` is that of
    the last entry to lower j's slack: ``less`` is strict, so an earlier
    row keeps a tie. ``reached_by`` names the entry's row, or holds a full
    vehicle's (rider indices, slacks) pair, whose first arg-min over the
    riders in column ``j`` is the row. The pair is the vehicle's riders
    when it joined; moving them here leaves ``msa_match``'s kept block of
    that vehicle stale, which its next use finds by comparing riders.

    The path holds ``j`` and tree vehicles, each once, so it reaches the
    root in at most ``n`` steps; a longer walk means the log or the seats
    are corrupt, and raises ``RuntimeError`` rather than loop."""
    for _ in range(n):
        r = reached_by[log[j:n * n_cols:n_cols].rfind(1)]
        if isinstance(r, tuple):
            rows, s2 = r
            r = int(rows[s2[:, j].argmin()])
        j_next = match_row[r]
        match_row[r] = j
        insort(riders[j], r)
        if j_next == -1:
            return
        riders[j_next].remove(r)
        j = j_next
    raise RuntimeError(f"path flip did not reach the root in {n} steps: column {j} is left")


def msa_match(m: SavingMatrix) -> MatchResult:
    """Maximum-saving matching via the primal-dual tree-growing loop, on
    one column per vehicle with its seat count.

    Zero-saving edges are never traversed: a UAV whose best saving is zero
    keeps p_i = 0 and simply flies direct. Each round roots a tree at an
    unmatched UAV, lowers p on reached UAVs and raises q on reached
    vehicles by the minimum positive slack. Reaching a vehicle with a free
    seat ends the tree with an augmentation; reaching a full one adds all
    of its riders to the tree. If a reached UAV's potential hits zero
    first, it drops out, freeing a seat, and the path back to the root is
    flipped. No vehicle ever loses a rider, so one with a free seat has
    never been in a tree and keeps q_j = 0.

    Each scan is one numpy operation on a shared buffer (see ``buf``
    below); an arg-min tie goes to a vehicle, then the lowest index. A
    root whose first choice, its row's lowest-index arg-max vehicle, has a
    free seat takes it with no scan: there its slack is 0 and every
    lower-index slack is positive, so the scan would pick it at eps = 0
    (Jonker and Volgenant's column reduction, *Computing* 38, 1987,
    settles the same rows without a search). Otherwise the root's own
    slacks and their arg-min come first, before the buffer is filled: if
    that vehicle wins against p_r and has a free seat, the root takes it
    at p_r - eps and nothing else is touched; else those slacks seed the
    tree and the loop goes on from that arg-min.

    A full vehicle's riders join in one 2-D update, from their index array
    and rows of w, which are kept per vehicle (``blocks``) and made again
    only when its rider list has changed since.

    Which row reached each vehicle is not stored per step: the path flip
    reads it back, for the vehicles on the path only, from a per-tree step
    log (``log`` below, and :func:`_flip_path`). Only the path flip runs in
    Python. ``duals.q`` repeats each vehicle's q over its seats.

    ``eps`` and the potential of a row joining the tree (the root's first
    step, the shift of ``buf``, the one-row slack update) reach the ufuncs
    as preallocated 0-d arrays, not as float64 scalars: numpy converts a
    scalar operand on every call, about 0.2 us, over some 10,000 calls a
    matrix, and a store into a 0-d array costs a tenth of that. The
    arithmetic, and so every bit, is the same.
    """
    n_rows, n_cols = m.saving.shape
    tol, seats = m.tol, m.seats

    p = m.saving.max(axis=1, initial=0.0)
    # Each row's first choice, its lowest-index arg-max vehicle.
    first = m.saving.argmax(axis=1).tolist() if n_cols else []
    # An edge at or below tol gets weight -inf, so its slack is +inf and
    # it never enters a tree.
    w = m.saving.copy()
    np.putmask(w, w <= tol, -np.inf)
    q = np.zeros(n_cols)
    match_row = [-1] * n_rows
    riders: list[list[int]] = [[] for _ in range(n_cols)]  # in UAV order
    # Per full vehicle, (riders, their index array, their rows of w), kept
    # while the vehicle's rider list equals the copy: at most one block a
    # vehicle, and nothing to invalidate when a path flip moves a rider.
    blocks: list[tuple | None] = [None] * n_cols
    iterations = 0

    # Per-tree state, reset at each root. ``buf`` holds the vehicle slacks,
    # the tree rows' potentials and -q of the tree vehicles. The first two
    # segments, ``limit``, are each the distance the duals may move before
    # it triggers a step; tree vehicles and rows outside the tree hold +inf
    # there, so the arg-min skips them. One ``buf -= eps`` shifts all three:
    # fl(-q - eps) = -fl(q + eps), so ``neg_q`` takes q's own roundings,
    # and q is written back once per tree. ``q_open`` is q with +inf on
    # tree vehicles, which keeps them out of the slack update, so no step
    # after a vehicle joins the tree marks it in the step log.
    buf = np.empty(2 * n_cols + n_rows)
    limit = buf[:n_cols + n_rows]
    slack = buf[:n_cols]
    p_tree = buf[n_cols:n_cols + n_rows]
    neg_q = buf[n_cols + n_rows:]
    q_open = np.empty(n_cols)
    s = np.empty(n_cols)  # scratch of the slack update
    # The step log, made when a tree first goes past its first step: one
    # byte per vehicle and step, each step adding one tree vehicle, so
    # min(I, J) + 1 rows; row 0, all ones, stands for the root. It is a
    # bytearray, so the path flip reads a vehicle's column with one
    # strided slice, and ``log_rows`` binds its rows as numpy ``out=``
    # targets once per match.
    log = log_rows = reached_by = None

    # Bound once: the loop below runs once per tree step. ``add``,
    # ``subtract`` and ``less`` take ``out`` by position, which skips the
    # keyword parsing (about 0.1 us a call); ``minimum`` takes it by
    # keyword, as numpy deprecates a third positional argument there.
    add, subtract, less, minimum = np.add, np.subtract, np.less, np.minimum
    min_reduce = minimum.reduce  # ``s2.min(axis=0)`` adds a Python wrapper
    eps0, p0 = np.empty(()), np.empty(())  # the 0-d operands
    next_event = limit.argmin
    w_rows = list(w)
    inf = np.inf
    for root in range(n_rows):
        p_r = p[root]
        if p_r <= tol:
            continue
        iterations += 1
        # A first choice with a free seat has q = 0, so its slack is
        # fl(0 + p_r) - p_r = 0, and every lower-index vehicle's is
        # positive: the first step would seat the root there at eps = 0.
        k = first[root]
        if len(riders[k]) < seats[k]:
            match_row[root] = k
            insort(riders[k], root)
            continue
        # Else the first step, before any tree state is set up: the root's
        # slacks and their arg-min (a vehicle wins a tie with p_r). Many
        # trees still end here, on another vehicle with a free seat.
        p0[()] = p_r
        subtract(add(q, p0, s), w_rows[root], s)
        k = int(s.argmin())
        eps = s[k]
        if eps <= p_r:
            if len(riders[k]) < seats[k]:
                if eps > 0.0:
                    p[root] = p_r - eps  # the fl(p - eps) of the shift
                match_row[root] = k
                insort(riders[k], root)
                continue
        else:
            k, eps = n_cols + root, p_r
        if log is None:
            size = min(n_rows, n_cols) + 1
            log = bytearray(size * n_cols)
            log_rows = list(np.frombuffer(log, dtype=bool).reshape(size, n_cols))
            log_rows[0].fill(True)
            reached_by = [0] * size
        buf.fill(inf)
        slack[:] = s
        p_tree[root] = p_r
        q_open[:] = q
        reached_by[0] = root
        n = 1  # log entries of this tree
        tree_cols = []

        while True:
            if eps > 0.0:
                eps0[()] = eps
                subtract(buf, eps0, buf)
            if k >= n_cols:
                # A reached UAV ran out of potential and drops out.
                r = k - n_cols
                freed = match_row[r]
                match_row[r] = -1
                if freed != -1:
                    riders[freed].remove(r)
                    _flip_path(freed, n, log, reached_by, n_cols, match_row, riders)
                break
            j = k
            rows = riders[j]
            if len(rows) < seats[j]:
                _flip_path(j, n, log, reached_by, n_cols, match_row, riders)
                break
            tree_cols.append(j)
            neg_q[j] = -q[j]
            q_open[j] = inf
            slack[j] = inf
            if len(rows) == 1:
                r = rows[0]
                p_tree[r] = p0[()] = p[r]
                subtract(add(q_open, p0, s), w_rows[r], s)
                less(s, slack, log_rows[n])  # strict: on a tie the earlier row keeps the column
                minimum(slack, s, out=slack)
                reached_by[n] = r
            else:
                # The riders of a full vehicle join together, in one 2-D
                # update; the path flip takes the first arg-min among them,
                # as adding them one at a time would.
                block = blocks[j]
                if block is None or block[0] != rows:
                    index = np.array(rows)
                    block = blocks[j] = (rows[:], index, w[index])
                _, rows, w_block = block
                p_tree[rows] = p_r = p[rows]
                s2 = add(p_r[:, None], q_open)
                subtract(s2, w_block, s2)
                min_reduce(s2, 0, None, s)
                less(s, slack, log_rows[n])
                minimum(slack, s, out=slack)
                reached_by[n] = (rows, s2)
            n += 1
            k = int(next_event())
            eps = limit[k]
        np.copyto(p, p_tree, where=p_tree < inf)
        if tree_cols:
            q[tree_cols] = -neg_q[tree_cols]

    q_seats = q if seats.count(1) == n_cols else np.repeat(q, seats)
    duals = DualState(p=p.tolist(), q=q_seats.tolist())
    return _collect_result(m, match_row, duals=duals, iterations=iterations)


def greedy_match(m: SavingMatrix) -> MatchResult:
    """Baseline heuristic: each UAV in index order grabs the vehicle with
    the largest saving among those with a seat left (lowest index on
    ties)."""
    match_row = [-1] * m.n_uavs
    if len(m.seats):
        w = m.saving.copy()
        left = list(m.seats)
        for i, row in enumerate(w):
            j = int(row.argmax())
            if row[j] > m.tol:
                match_row[i] = j
                left[j] -= 1
                if not left[j]:
                    w[:, j] = -np.inf  # full
    return _collect_result(m, match_row)


def brute_force_match(m: SavingMatrix) -> MatchResult:
    """Exact optimum by exhaustive search over capacity-respecting
    assignments, on each vehicle's saving and seat count. Guarded to
    small instances."""
    n_orig = len(m.capacity)
    # With no UAV there is nothing to search, however many vehicles.
    if m.n_uavs > MAX_BRUTE_UAVS or (m.n_uavs and n_orig > MAX_BRUTE_VEHICLES):
        raise BruteForceSizeError(
            f"instance {m.n_uavs} UAVs x {n_orig} vehicles exceeds the "
            f"{MAX_BRUTE_UAVS}x{MAX_BRUTE_VEHICLES} exhaustive-search guard"
        )

    w = m.saving.tolist()
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
            wij = w[i][orig]
            if wij <= m.tol:
                continue
            sub = caps[:orig] + (caps[orig] - 1,) + caps[orig + 1 :]
            cand = wij + best(i + 1, sub)[0]
            if cand > value:
                value, choice = cand, orig
        memo[key] = (value, choice)
        return value, choice

    match_row = [-1] * m.n_uavs
    caps = tuple(m.seats)
    for i in range(m.n_uavs):
        _, choice = best(i, caps)
        if choice != -1:
            match_row[i] = choice
            caps = caps[:choice] + (caps[choice] - 1,) + caps[choice + 1 :]
    return _collect_result(m, match_row)


def verify_duals(m: SavingMatrix, result: MatchResult, duals: DualState) -> bool:
    """Certify optimality of a matching from the solver's potentials, the
    LP dual of the capacitated assignment: p_i per UAV and Q_j per vehicle,
    Q_j the lowest of ``duals.q`` over vehicle j's seats (fl(p_i + q)
    never falls as q grows, so feasibility there holds on every seat).

    Checks that no vehicle seats more riders than it has seats, one finite
    potential per UAV and per seat, p >= 0 and Q >= 0, dual feasibility
    (p_i + Q_j >= w_ij), Q_j = 0 while vehicle j has a free seat, matched
    edges tight and above tol, and p_i = 0 for an unmatched UAV. All
    within tol. An assignment whose UAV or vehicle is not an index of the
    matrix (an integer in range; a bool is not one) reads False.
    """
    tol, seats = m.tol, m.seats
    p = np.array(duals.p, dtype=np.float64)
    q = np.array(duals.q, dtype=np.float64)
    vehicle = np.repeat(np.arange(len(seats)), seats)
    uavs, vehicles = list(result.assignment), list(result.assignment.values())
    if (len(p) != m.n_uavs or len(q) != len(vehicle)
            or not (np.isfinite(p).all() and np.isfinite(q).all())
            or not (_in_range(uavs, m.n_uavs) and _in_range(vehicles, len(seats)))):
        return False
    q_min = np.full(len(seats), np.inf)  # +inf for a vehicle with no seat
    np.minimum.at(q_min, vehicle, q)
    rows, cols = np.array(uavs, dtype=np.intp), np.array(vehicles, dtype=np.intp)
    unmatched_row = np.ones(m.n_uavs, dtype=bool)
    unmatched_row[rows] = False
    riders = np.bincount(cols, minlength=len(seats))
    w_matched = m.saving[rows, cols]
    return not (
        (riders > seats).any()
        or (p < -tol).any()
        or (q_min < -tol).any()
        or (np.add.outer(p, q_min) < m.saving - tol).any()
        or (q_min[riders < seats] > tol).any()
        or (p[unmatched_row] > tol).any()
        or (abs(p[rows] + q_min[cols] - w_matched) > tol).any()
        or (w_matched <= tol).any()
    )


def _in_range(values: list, n: int) -> bool:
    """Whether every one of ``values`` is an integer in [0, n)."""
    return (_leading_integers(values) == len(values)
            and min(values, default=0) >= 0 and max(values, default=-1) < n)

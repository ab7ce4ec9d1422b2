"""Seeded scenario generation and Monte Carlo experiments.

Scenarios draw UAV trip lengths and per-pair direction deviations from a
seeded RNG; trials compare total fleet consumption under no hitching, the
greedy matcher and the optimal matcher. Per-trial seeds are derived from
(master seed, UAV count, trial index) so results do not depend on the
order in which trials run.

A scenario holds its UAVs and vehicles as columns, one read-only array
per model field (:class:`~uavhitch.matching.TaskColumns`,
:class:`~uavhitch.matching.OfferColumns`), as it holds theta as one
array: the generator draws them, the loader fills them and the
saving-matrix build reads them, and a ``UavTask`` or ``VehicleOffer`` is
made only when an entry is read. Consecutive trials of one population
size that drew the same vehicles are planned in one build over their
stacked UAVs, as many as fit in the pair count of the run's largest
trial, and each trial is matched on its own rows.
Planning is elementwise, so every saving has the bits a per-trial build
gives it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np

from .matching import (
    OfferColumns,
    SavingMatrix,
    TaskColumns,
    build_saving_matrix,
    greedy_match,
    msa_match,
    theta_array,
)
from .model import PairGeometry, PlannerConfig, UavTask, UnboundedHitchError, VehicleOffer
from .planner import UNBOUNDED_MESSAGE, plan_matrix

__all__ = [
    "GeneratorParams",
    "Scenario",
    "TrialReport",
    "ExperimentRow",
    "case_theta_range",
    "generate_scenario",
    "scale_scenario",
    "run_trial",
    "run_experiment",
    "sweep_curves",
    "SWEEP_KINDS",
    "SWEEP_PARAMETERS",
    "EXPERIMENT_CSV_HEADER",
]

def case_theta_range(case: int) -> tuple[float, float]:
    """Direction-deviation range of the two standard experiment cases."""
    if case == 1:
        return (0.0, math.pi)
    if case == 2:
        return (0.0, math.pi / 2)
    raise ValueError(f"case must be 1 or 2, got {case}")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the random scenario generator.

    Vehicles are homogeneous by default; ``v_range``/``gamma_range``
    switch on per-vehicle sampling. ``deadline_factor`` k sets each
    deadline to k times the direct flight time (None = unbounded).
    """

    n_uavs: int
    n_vehicles: int
    theta_range: tuple[float, float] = (0.0, math.pi)
    x_max: float = 20.0
    u: float = 60.0
    v: float = 40.0
    gamma: float = 0.3
    omega: float = 0.8
    deadline_factor: float | None = None
    capacity: int = 1
    v_range: tuple[float, float] | None = None
    gamma_range: tuple[float, float] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_uavs < 0 or self.n_vehicles < 0:
            raise ValueError("population counts must be >= 0")
        lo, hi = self.theta_range
        if not (0.0 <= lo <= hi <= math.pi):
            raise ValueError(f"theta_range must lie within [0, pi], got {self.theta_range}")
        if not self.x_max > 0.0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.deadline_factor is not None and not self.deadline_factor >= 1.0:
            raise ValueError("deadline_factor below 1 makes the direct flight infeasible")
        # The model types check their own fields, also for a run that draws
        # no UAV or no vehicle: one probe each, at the longest trip and at
        # both ends of a sampled range, made once here and not per trial.
        PlannerConfig(omega=self.omega)
        UavTask(x=self.x_max, u=self.u)
        for v, gamma in itertools.product(
            self.v_range or (self.v,), self.gamma_range or (self.gamma,)
        ):
            VehicleOffer(v=v, gamma=gamma, capacity=self.capacity)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully materialized experiment input.

    ``tasks`` and ``offers`` are held as columns, one read-only array per
    model field (``s.tasks.x``, ``s.offers.capacity``, ...), and read as
    sequences of model objects: ``s.tasks[i]`` is the ``UavTask`` of UAV
    ``i``, made on read. Given sequences of model objects, the scenario
    gathers them into columns. ``geoms[i, j]`` is the direction deviation
    theta of UAV ``i`` and vehicle ``j``, held as one read-only (I, J)
    float64 array checked by :func:`~uavhitch.matching.theta_array`.
    Scenarios compare by identity; equal ones give equal
    ``scenario_io.dump_scenario`` bytes.
    """

    tasks: TaskColumns
    offers: OfferColumns
    geoms: np.ndarray
    config: PlannerConfig
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        tasks, offers = TaskColumns.of(self.tasks), OfferColumns.of(self.offers)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "offers", offers)
        object.__setattr__(self, "geoms", theta_array(self.geoms, len(tasks), len(offers)))


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one trial: totals per strategy plus solver effort."""

    total_direct: float
    total_greedy: float
    total_msa: float
    saving_msa: float
    saving_greedy: float
    iterations: int


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregate over the trials of one UAV population size."""

    uav_count: int
    n_trials: int
    mean_direct: float
    mean_greedy: float
    mean_msa: float
    std_msa: float
    mean_saving_msa: float
    mean_saving_greedy: float
    mean_iterations: float

    def as_csv_row(self) -> list:
        return [getattr(self, name) for name in EXPERIMENT_CSV_HEADER]


EXPERIMENT_CSV_HEADER = [f.name for f in fields(ExperimentRow)]


@functools.lru_cache(maxsize=16)
def _fleet(v: float, gamma: float, capacity: int, n_vehicles: int) -> OfferColumns:
    """The columns of ``n_vehicles`` homogeneous vehicles. They are
    read-only, so every scenario that draws these vehicles shares them."""
    return OfferColumns(
        np.full(n_vehicles, v, dtype=np.float64), np.full(n_vehicles, gamma, dtype=np.float64),
        [capacity] * n_vehicles,
    )


def generate_scenario(params: GeneratorParams, seed: int) -> Scenario:
    """Draw a scenario deterministically from (params, seed).

    Trip lengths are uniform on (0, x_max]; deviations are uniform on
    the configured range, drawn row-major and kept as drawn. The draws
    fill the scenario's columns, each checked once.
    """
    rng = np.random.default_rng(seed)
    n_uavs, n_vehicles = params.n_uavs, params.n_vehicles
    xs = params.x_max * (1.0 - rng.random(n_uavs))
    lo, hi = params.theta_range
    thetas = rng.uniform(lo, hi, size=(n_uavs, n_vehicles))
    if params.v_range is None and params.gamma_range is None:
        offers = _fleet(params.v, params.gamma, params.capacity, n_vehicles)
    else:
        if params.v_range is not None:
            vs = rng.uniform(params.v_range[0], params.v_range[1], n_vehicles)
        else:
            vs = np.full(n_vehicles, params.v, dtype=np.float64)
        if params.gamma_range is not None:
            gammas = rng.uniform(params.gamma_range[0], params.gamma_range[1], n_vehicles)
        else:
            gammas = np.full(n_vehicles, params.gamma, dtype=np.float64)
        offers = OfferColumns(vs, gammas, [params.capacity] * n_vehicles)

    k = params.deadline_factor
    deadline = np.full(n_uavs, math.inf) if k is None else k * xs / params.u
    tasks = TaskColumns(
        xs, np.full(n_uavs, params.u, dtype=np.float64), deadline,
        np.full(n_uavs, math.inf), np.zeros(n_uavs),
    )
    return Scenario(
        tasks=tasks,
        offers=offers,
        geoms=thetas,
        config=PlannerConfig(omega=params.omega),
        seed=int(seed),
        label=params.label or f"I{params.n_uavs}_J{params.n_vehicles}",
    )


def scale_scenario(s: Scenario, factor: float) -> Scenario:
    """Scale every trip length (and bounded deadline) by a factor."""
    t = s.tasks
    with np.errstate(over="ignore"):  # as with Python floats; the columns reject inf
        x, deadline = t.x * factor, t.deadline.copy()
        deadline[np.isfinite(deadline)] *= factor
    tasks = TaskColumns(x, t.u, deadline, t.battery_capacity, t.battery_level)
    return replace(s, tasks=tasks)


def run_trial(s: Scenario) -> TrialReport:
    """Match the fleet both ways and total up the consumptions: a stack of
    one trial.

    Unmatched UAVs fly direct and contribute their baseline consumption.
    """
    return _match_trial(s, _build_stack([s]))


def _build_stack(stack: list[Scenario]) -> SavingMatrix:
    """The saving matrix of the trials of ``stack``, which share their
    vehicles and config, over their UAVs stacked in trial order."""
    first = stack[0]
    if len(stack) == 1:
        tasks, theta = first.tasks, first.geoms
    else:
        tasks = TaskColumns(*map(np.concatenate, zip(*(s.tasks.columns() for s in stack))))
        theta = np.concatenate([s.geoms for s in stack])
    return build_saving_matrix(first.config, tasks, first.offers, theta)


def _match_trial(s: Scenario, m: SavingMatrix) -> TrialReport:
    """The report of trial ``s``, matched on ``m``, its own rows with its
    own seats."""
    msa = msa_match(m)
    greedy = greedy_match(m)
    total_direct = _sum_in_order((s.tasks.x / s.tasks.u).tolist())
    return TrialReport(
        total_direct=total_direct,
        total_greedy=total_direct - greedy.total_saving,
        total_msa=total_direct - msa.total_saving,
        saving_msa=msa.total_saving,
        saving_greedy=greedy.total_saving,
        iterations=msa.iterations,
    )


def derive_trial_seed(master_seed: int, uav_count: int, trial: int) -> int:
    """Deterministic per-trial seed, independent of evaluation order."""
    ss = np.random.SeedSequence([master_seed, uav_count, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def _sum_in_order(values) -> float:
    """Left-to-right float sum from 0.0. The builtin ``sum`` compensates
    rounding from Python 3.12 on, which would make same-seed CSV bytes
    depend on the interpreter version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _mean(values: list[float]) -> float:
    return _sum_in_order(values) / len(values) if values else 0.0


def _sample_std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(_sum_in_order((v - mu) ** 2 for v in values) / (len(values) - 1))


def run_experiment(
    params: GeneratorParams,
    n_trials: int,
    uav_counts: list[int],
    master_seed: int = 0,
    on_scenario: Callable[[int, int, Scenario], None] | None = None,
) -> list[ExperimentRow]:
    """Repeat seeded trials per population size and aggregate.

    Trials are summed in trial-index order, so the output is bit-identical
    across reruns. Consecutive trials of one count are planned in one
    build while they drew the same vehicles: a trial joins the open stack
    when the stack has room and the trial's ``offers`` is the stack's own
    columns object, as :func:`generate_scenario` shares one among the
    trials of a homogeneous fleet. A stack holds as many trials as fit in
    the pair count of the largest trial, ``max(uav_counts) * n_vehicles``,
    so no build is bigger than that trial's own; each trial is matched on
    its own rows, with its own seats. The results are those of
    :func:`run_trial` on each trial.

    ``on_scenario(count, trial, scenario)``, if given, sees each scenario
    once, in order, before its trial is matched. If a stack's build
    raises, its trials are planned one at a time after each is seen, so
    the trials up to the failing one are seen and the error names the UAV
    by its index in its own trial, as without stacking.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    largest = max(uav_counts, default=0) * params.n_vehicles
    rows = []
    for count in uav_counts:
        p = replace(params, n_uavs=count)
        pairs = count * params.n_vehicles
        size = largest // pairs if pairs else n_trials
        reports: list[TrialReport] = []
        stack: list[Scenario] = []
        for t in range(n_trials):
            try:
                s = generate_scenario(p, derive_trial_seed(master_seed, count, t))
            except ValueError:
                # A failed draw comes after the trials drawn before it have
                # run, as without stacking.
                reports += _run_stack(count, t - len(stack), stack, on_scenario)
                raise
            if stack and (len(stack) == size or s.offers is not stack[0].offers):
                reports += _run_stack(count, t - len(stack), stack, on_scenario)
                stack = []
            stack.append(s)
        reports += _run_stack(count, n_trials - len(stack), stack, on_scenario)
        rows.append(
            ExperimentRow(
                uav_count=count,
                n_trials=n_trials,
                mean_direct=_mean([r.total_direct for r in reports]),
                mean_greedy=_mean([r.total_greedy for r in reports]),
                mean_msa=_mean([r.total_msa for r in reports]),
                std_msa=_sample_std([r.total_msa for r in reports]),
                mean_saving_msa=_mean([r.saving_msa for r in reports]),
                mean_saving_greedy=_mean([r.saving_greedy for r in reports]),
                mean_iterations=_mean([float(r.iterations) for r in reports]),
            )
        )
    return rows


def _run_stack(
    count: int,
    first: int,
    stack: list[Scenario],
    on_scenario: Callable[[int, int, Scenario], None] | None,
) -> list[TrialReport]:
    """Reports of trials ``first``, ``first + 1``, ... of ``count`` UAVs,
    planned in one build when there are several; each is shown to
    ``on_scenario`` before it is matched. A stack whose build raises is
    planned again one trial at a time, which raises on the failing trial."""
    m = None
    if len(stack) > 1:
        try:
            m = _build_stack(stack)
        except ValueError:
            pass
    reports, start = [], 0
    for t, s in enumerate(stack, first):
        if on_scenario is not None:
            on_scenario(count, t, s)
        stop = start + len(s.tasks)
        reports.append(run_trial(s) if m is None else _match_trial(s, m._rows(start, stop)))
        start = stop
    return reports


def _linspace(lo: float, hi: float, points: int) -> list[float]:
    if points < 2:
        return [lo]
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


# Parameters every sweep kind takes, with their defaults.
_SWEEP_COMMON = dict(x=5.0, u=60.0, deadline=math.inf)
# Each kind: its own parameters with their defaults, its axes as (column,
# low, high, count) parameter names, and the plan field in the value column.
_SWEEPS = {
    "speed": (
        dict(omega=0.8, theta=0.0, gamma=0.0, v_min=5.0, v_max=80.0, points=151),
        [("v", "v_min", "v_max", "points")],
        "consumption",
    ),
    "gamma": (
        dict(omega=0.3, theta=0.0, v=30.0, gamma_min=0.0, gamma_max=0.6, points=121),
        [("gamma", "gamma_min", "gamma_max", "points")],
        "consumption",
    ),
    "surface": (
        dict(omega=0.8, theta=0.0, v_min=20.0, v_max=80.0, v_points=61,
             gamma_min=0.0, gamma_max=0.5, gamma_points=51),
        [("v", "v_min", "v_max", "v_points"), ("gamma", "gamma_min", "gamma_max", "gamma_points")],
        "consumption",
    ),
    "battery": (
        dict(omega=0.8, theta=math.pi / 4, v=30.0, gamma=0.3,
             delta_e_min=0.0, delta_e_max=0.05, points=101),
        [("delta_e", "delta_e_min", "delta_e_max", "points")],
        "y_star",
    ),
}
# The sweep kinds, and every parameter some kind takes with its type.
SWEEP_KINDS = tuple(_SWEEPS)
SWEEP_PARAMETERS = {
    name: type(default)
    for table in (_SWEEP_COMMON, *(defaults for defaults, _, _ in _SWEEPS.values()))
    for name, default in table.items()
}


def _sweep_task(p: dict) -> UavTask:
    if "delta_e" not in p:
        return UavTask(p["x"], p["u"], p["deadline"])
    # An empty battery of capacity h has headroom exactly h; (h + 1) - 1
    # would round. A capacity must be positive, so h = 0 is a full one.
    h = p["delta_e"]
    if not h >= 0.0:
        raise ValueError(f"delta_e must be nonnegative, got {h}")
    capacity, level = (h, 0.0) if h > 0.0 else (1.0, 1.0)
    return UavTask(p["x"], p["u"], p["deadline"], battery_capacity=capacity, battery_level=level)


def sweep_curves(kind: str, **grid) -> tuple[list[str], list[tuple]]:
    """Tabulate figure-style curves; returns (header, rows).

    Kinds: ``speed`` (optimal consumption vs vehicle speed), ``gamma``
    (vs charging rate), ``surface`` (vs speed and rate, speed outer),
    ``battery`` (optimal riding distance vs battery headroom ``delta_e``,
    planned at exactly that headroom). The whole grid is one
    :func:`~uavhitch.planner.plan_matrix` call at each point's battery
    headroom, so every point gets the plan
    :func:`~uavhitch.planner.plan_pair` gives its task: the charge
    is capped only on a finite battery, and ``gamma = inf`` gives swap
    plans. ``x``, ``u`` and ``deadline`` (default unbounded) apply to every
    kind, and :class:`~uavhitch.model.PlannerConfig`'s default ``tol`` to
    every plan. Grids that reach the always-eligible charging regime need
    a bounded ``deadline``, and the error names the first such point. Axis
    bounds must be finite.
    """
    for name in ("points", "v_points", "gamma_points"):
        if grid.get(name, 1) < 1:
            raise ValueError(f"{name} must be at least 1, got {grid[name]}")
    if kind not in _SWEEPS:
        raise ValueError(f"unknown sweep kind {kind!r}")
    defaults, axes, field = _SWEEPS[kind]
    params = {**_SWEEP_COMMON, **defaults}
    unknown = sorted(set(grid) - set(params))
    if unknown:
        raise ValueError(f"unknown sweep parameters: {unknown}")
    params.update(grid)

    for _, lo, hi, _ in axes:
        for name in (lo, hi):
            if not math.isfinite(params[name]):
                raise ValueError(f"{name} must be finite, got {params[name]}")

    cfg = PlannerConfig(omega=params["omega"])
    columns = [column for column, _, _, _ in axes]
    values = [_linspace(params[lo], params[hi], params[n]) for _, lo, hi, n in axes]
    points = list(itertools.product(*values))
    # plan_matrix's inputs, one row per point up to the first invalid one:
    # the points before it are planned, so the sweep fails on its first bad
    # point in row order, whether that point is invalid or unbounded.
    inputs, invalid = [], None
    for point in points:
        p = {**params, **dict(zip(columns, point))}
        try:
            task, offer = _sweep_task(p), VehicleOffer(v=p["v"], gamma=p["gamma"])
            geom = PairGeometry(p["theta"])
        except ValueError as exc:
            invalid = exc
            break
        inputs.append((task.x, task.u, offer.v, offer.gamma, geom.theta, task.deadline,
                       task.battery_headroom))
    arrays = plan_matrix(cfg, *np.array(inputs, dtype=np.float64).reshape(-1, 7).T)
    flagged = arrays.unbounded.nonzero()[0]
    if flagged.size:
        at = ", ".join(f"{c}={x}" for c, x in zip(columns, points[flagged[0]]))
        raise UnboundedHitchError(f"{at}: {UNBOUNDED_MESSAGE}")
    if invalid is not None:
        raise invalid
    return [*columns, "value"], [
        (*point, value) for point, value in zip(points, getattr(arrays, field).tolist())
    ]

"""Seeded scenario generation and Monte Carlo experiments.

Scenarios draw UAV trip lengths and per-pair direction deviations from a
seeded RNG; trials compare total fleet consumption under no hitching, the
greedy matcher and the optimal matcher. Per-trial seeds are derived from
(master seed, UAV count, trial index) so results do not depend on the
order in which trials run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .matching import build_saving_matrix, greedy_match, msa_match
from .model import PairGeometry, PlannerConfig, UavTask, VehicleOffer
from .planner import optimal_distance, optimal_distance_limited

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
    "EXPERIMENT_CSV_HEADER",
]

EXPERIMENT_CSV_HEADER = [
    "uav_count",
    "n_trials",
    "mean_direct",
    "mean_greedy",
    "mean_msa",
    "std_msa",
    "mean_saving_msa",
    "mean_saving_greedy",
    "mean_iterations",
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
    tol: float = 1e-9
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
        if self.deadline_factor is not None and self.deadline_factor < 1.0:
            raise ValueError("deadline_factor below 1 makes the direct flight infeasible")


@dataclass(frozen=True)
class Scenario:
    """A fully materialized experiment input."""

    tasks: list[UavTask]
    offers: list[VehicleOffer]
    geoms: list[list[PairGeometry]]
    config: PlannerConfig
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.geoms) != len(self.tasks):
            raise ValueError(
                f"theta matrix has {len(self.geoms)} rows for {len(self.tasks)} UAVs"
            )
        for i, row in enumerate(self.geoms):
            if len(row) != len(self.offers):
                raise ValueError(
                    f"theta row {i} has {len(row)} entries for {len(self.offers)} vehicles"
                )


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one trial: totals per strategy plus solver effort."""

    n_uavs: int
    n_vehicles: int
    total_direct: float
    total_greedy: float
    total_msa: float
    saving_msa: float
    saving_greedy: float
    iterations: int
    seed: int


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
        return [
            self.uav_count,
            self.n_trials,
            self.mean_direct,
            self.mean_greedy,
            self.mean_msa,
            self.std_msa,
            self.mean_saving_msa,
            self.mean_saving_greedy,
            self.mean_iterations,
        ]


def generate_scenario(params: GeneratorParams, seed: int) -> Scenario:
    """Draw a scenario deterministically from (params, seed).

    Trip lengths are uniform on (0, x_max]; deviations are uniform on
    the configured range, drawn row-major.
    """
    rng = np.random.default_rng(seed)
    xs = params.x_max * (1.0 - rng.random(params.n_uavs))
    lo, hi = params.theta_range
    thetas = rng.uniform(lo, hi, size=(params.n_uavs, params.n_vehicles))
    if params.v_range is not None:
        vs = rng.uniform(params.v_range[0], params.v_range[1], params.n_vehicles)
    else:
        vs = np.full(params.n_vehicles, params.v)
    if params.gamma_range is not None:
        gammas = rng.uniform(params.gamma_range[0], params.gamma_range[1], params.n_vehicles)
    else:
        gammas = np.full(params.n_vehicles, params.gamma)

    tasks = []
    for x in xs:
        x = float(x)
        deadline = (
            math.inf
            if params.deadline_factor is None
            else params.deadline_factor * x / params.u
        )
        tasks.append(UavTask(x=x, u=params.u, deadline=deadline))
    offers = [
        VehicleOffer(v=float(vs[j]), gamma=float(gammas[j]), capacity=params.capacity)
        for j in range(params.n_vehicles)
    ]
    geoms = [
        [PairGeometry(float(thetas[i, j])) for j in range(params.n_vehicles)]
        for i in range(params.n_uavs)
    ]
    return Scenario(
        tasks=tasks,
        offers=offers,
        geoms=geoms,
        config=PlannerConfig(omega=params.omega, tol=params.tol),
        seed=int(seed),
        label=params.label or f"I{params.n_uavs}_J{params.n_vehicles}",
    )


def scale_scenario(s: Scenario, factor: float) -> Scenario:
    """Scale every trip length (and bounded deadline) by a factor."""
    tasks = [
        replace(
            t,
            x=t.x * factor,
            deadline=t.deadline if math.isinf(t.deadline) else t.deadline * factor,
        )
        for t in s.tasks
    ]
    return replace(s, tasks=tasks)


def run_trial(s: Scenario) -> TrialReport:
    """Match the fleet both ways and total up the consumptions.

    Unmatched UAVs fly direct and contribute their baseline consumption.
    """
    m = build_saving_matrix(s.config, s.tasks, s.offers, s.geoms)
    msa = msa_match(m)
    greedy = greedy_match(m)
    total_direct = sum(t.direct_time for t in s.tasks)
    return TrialReport(
        n_uavs=len(s.tasks),
        n_vehicles=len(s.offers),
        total_direct=total_direct,
        total_greedy=total_direct - greedy.total_saving,
        total_msa=total_direct - msa.total_saving,
        saving_msa=msa.total_saving,
        saving_greedy=greedy.total_saving,
        iterations=msa.iterations,
        seed=s.seed,
    )


def derive_trial_seed(master_seed: int, uav_count: int, trial: int) -> int:
    """Deterministic per-trial seed, independent of evaluation order."""
    ss = np.random.SeedSequence([master_seed, uav_count, trial])
    return int(ss.generate_state(1, np.uint64)[0])


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _sample_std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def run_experiment(
    params: GeneratorParams,
    n_trials: int,
    uav_counts: list[int],
    master_seed: int = 0,
) -> list[ExperimentRow]:
    """Repeat seeded trials per population size and aggregate.

    Trials run and are summed in trial-index order, so the output is
    bit-identical across reruns.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rows = []
    for count in uav_counts:
        p = replace(params, n_uavs=count)
        reports = [
            run_trial(generate_scenario(p, derive_trial_seed(master_seed, count, t)))
            for t in range(n_trials)
        ]

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


def _linspace(lo: float, hi: float, points: int) -> list[float]:
    if points < 2:
        return [lo]
    step = (hi - lo) / (points - 1)
    return [lo + i * step for i in range(points)]


def _best_consumption(
    omega: float,
    x: float,
    u: float,
    v: float,
    gamma: float,
    theta: float,
    deadline: float,
    tol: float,
    headroom: float | None = None,
) -> tuple[float, float]:
    cfg = PlannerConfig(omega=omega, tol=tol)
    if headroom is None:
        task = UavTask(x=x, u=u, deadline=deadline)
        plan = optimal_distance(cfg, task, VehicleOffer(v=v, gamma=gamma), PairGeometry(theta))
    else:
        # Any (capacity, level) pair with the requested headroom will do.
        task = UavTask(
            x=x, u=u, deadline=deadline, battery_capacity=headroom + 1.0, battery_level=1.0
        )
        plan = optimal_distance_limited(
            cfg, task, VehicleOffer(v=v, gamma=gamma), PairGeometry(theta)
        )
    return plan.consumption, plan.y_star


def sweep_curves(kind: str, **grid) -> tuple[list[str], list[tuple]]:
    """Tabulate figure-style curves; returns (header, rows).

    Kinds: ``speed`` (optimal consumption vs vehicle speed), ``gamma``
    (vs charging rate), ``surface`` (vs speed and rate), ``battery``
    (optimal riding distance vs battery headroom). Grids that reach the
    always-eligible charging regime need a bounded ``deadline``.
    """
    for name in ("points", "v_points", "gamma_points"):
        if grid.get(name, 1) < 1:
            raise ValueError(f"{name} must be at least 1, got {grid[name]}")
    tol = grid.pop("tol", 1e-9)
    deadline = grid.pop("deadline", math.inf)
    if kind == "speed":
        x = grid.pop("x", 5.0)
        u = grid.pop("u", 60.0)
        omega = grid.pop("omega", 0.8)
        theta = grid.pop("theta", 0.0)
        gamma = grid.pop("gamma", 0.0)
        vs = _linspace(grid.pop("v_min", 5.0), grid.pop("v_max", 80.0), grid.pop("points", 151))
        _reject_extras(grid)
        rows = [
            (v, _best_consumption(omega, x, u, v, gamma, theta, deadline, tol)[0]) for v in vs
        ]
        return ["v", "value"], rows
    if kind == "gamma":
        x = grid.pop("x", 5.0)
        u = grid.pop("u", 60.0)
        v = grid.pop("v", 30.0)
        omega = grid.pop("omega", 0.3)
        theta = grid.pop("theta", 0.0)
        gammas = _linspace(
            grid.pop("gamma_min", 0.0), grid.pop("gamma_max", 0.6), grid.pop("points", 121)
        )
        _reject_extras(grid)
        rows = [
            (g, _best_consumption(omega, x, u, v, g, theta, deadline, tol)[0]) for g in gammas
        ]
        return ["gamma", "value"], rows
    if kind == "surface":
        x = grid.pop("x", 5.0)
        u = grid.pop("u", 60.0)
        omega = grid.pop("omega", 0.8)
        theta = grid.pop("theta", 0.0)
        vs = _linspace(grid.pop("v_min", 20.0), grid.pop("v_max", 80.0), grid.pop("v_points", 61))
        gammas = _linspace(
            grid.pop("gamma_min", 0.0), grid.pop("gamma_max", 0.5), grid.pop("gamma_points", 51)
        )
        _reject_extras(grid)
        rows = [
            (v, g, _best_consumption(omega, x, u, v, g, theta, deadline, tol)[0])
            for v in vs
            for g in gammas
        ]
        return ["v", "gamma", "value"], rows
    if kind == "battery":
        x = grid.pop("x", 5.0)
        u = grid.pop("u", 60.0)
        v = grid.pop("v", 30.0)
        omega = grid.pop("omega", 0.8)
        theta = grid.pop("theta", math.pi / 4)
        gamma = grid.pop("gamma", 0.3)
        headrooms = _linspace(
            grid.pop("delta_e_min", 0.0), grid.pop("delta_e_max", 0.05), grid.pop("points", 101)
        )
        _reject_extras(grid)
        rows = [
            (
                de,
                _best_consumption(omega, x, u, v, gamma, theta, deadline, tol, headroom=de)[1],
            )
            for de in headrooms
        ]
        return ["delta_e", "value"], rows
    raise ValueError(f"unknown sweep kind {kind!r}")


def _reject_extras(grid: dict) -> None:
    if grid:
        raise ValueError(f"unknown sweep parameters: {sorted(grid)}")

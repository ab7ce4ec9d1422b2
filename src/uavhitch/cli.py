"""Command-line interface.

Subcommands: ``plan`` (single UAV-vehicle pair), ``match`` (solve a
scenario file), ``simulate`` (Monte Carlo experiment CSV), ``sweep``
(figure-style curve tables) and ``validate`` (check scenario files).

Exit codes: 0 success, 2 invalid input, 3 exhaustive-solver size guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .matching import (
    BruteForceSizeError,
    MatchResult,
    SavingMatrix,
    brute_force_match,
    build_saving_matrix,
    greedy_match,
    msa_match,
    verify_duals,
)
from .model import PairGeometry, PlannerConfig, UavTask, VehicleOffer
from .planner import _BINDINGS, eligibility, plan_pair
from .scenario_io import csv_text, load_scenario, save_scenario
from .simlab import (
    EXPERIMENT_CSV_HEADER,
    SWEEP_KINDS,
    SWEEP_PARAMETERS,
    GeneratorParams,
    Scenario,
    case_theta_range,
    run_experiment,
    sweep_curves,
)


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    return format(value, ".6g")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_at_least(text: str, low: int = 0) -> int:
    """A count, or a master seed as numpy's seeding requires (``low`` = 0)."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _counts(text: str) -> list[int]:
    try:
        counts = [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")
    if any(c < 0 for c in counts):
        raise argparse.ArgumentTypeError(f"counts must be >= 0, got {text!r}")
    return counts


def _default_seed() -> int:
    try:
        return _int_at_least(os.environ.get("UAVHITCH_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"UAVHITCH_SEED {exc}") from None


def _given(args: argparse.Namespace, names) -> dict:
    """The flags among ``names``, a library call's parameter names, that
    were given. An omitted flag is None and is left out, so the library's
    default applies."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _cmd_plan(args: argparse.Namespace) -> int:
    theta = math.radians(args.theta) if args.degrees else args.theta
    cfg = PlannerConfig(**_given(args, PlannerConfig.__match_args__))
    task = UavTask(**_given(args, UavTask.__match_args__))
    offer = VehicleOffer(**_given(args, VehicleOffer.__match_args__))
    geom = PairGeometry(theta)
    elig = eligibility(cfg, task, offer, geom)
    plan = plan_pair(cfg, task, offer, geom)

    if args.format == "json":
        payload = {
            "eligible": elig.eligible,
            "reason": elig.reason.value,
            "threshold_angle": elig.threshold_angle,
            "y_star": plan.y_star,
            "total_time": plan.total_time,
            "energy": plan.energy,
            "consumption": plan.consumption,
            "saving": plan.saving,
            "binding": plan.binding.value,
            "swap_and_depart": plan.swap_and_depart,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [
            f"eligible:        {'yes' if elig.eligible else 'no'} ({elig.reason.value})",
            f"threshold_angle: {_fmt(elig.threshold_angle)} rad",
            f"y_star:          {_fmt(plan.y_star)} km",
            f"binding:         {plan.binding.value}",
            f"total_time:      {_fmt(plan.total_time)} h",
            f"energy:          {_fmt(plan.energy)} flight-h",
            f"consumption:     {_fmt(plan.consumption)}",
            f"saving:          {_fmt(plan.saving)}",
        ]
        if plan.swap_and_depart:
            lines.append("swap_and_depart: yes")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _solve(matrix: SavingMatrix, solver: str) -> MatchResult:
    if solver == "msa":
        return msa_match(matrix)
    if solver == "greedy":
        return greedy_match(matrix)
    return brute_force_match(matrix)


def _json_floats(column) -> list[str]:
    """Each float of ``column`` (a list of floats or a float64 array) as
    ``json.dumps`` writes it.

    A finite column is written by one ``orjson.dumps`` call, split at the
    commas. orjson writes each float's shortest round-trip digits, which is
    ``repr``'s text wherever ``repr`` writes positional digits. ``repr``
    writes a nonzero value below 1e-4 or from 1e16 up in exponent form
    (``1e-05``, ``1e+16``), which orjson spells otherwise, so those entries
    are written by ``repr``. A column holding a non-finite value is written
    by ``json.dumps``. orjson is imported on the first write, not with this
    module, as ``load_scenario`` imports it.
    """
    import orjson

    values = np.ascontiguousarray(column, dtype=np.float64)
    if not np.isfinite(values).all():
        return list(map(json.dumps, values.tolist()))
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    for k in np.flatnonzero((size >= 1e16) | ((size < 1e-4) & (values != 0))).tolist():
        texts[k] = float.__repr__(values.item(k))
    return texts


# The JSON text of each binding, indexed by its code in ``PlanArrays.binding``.
_BINDING_JSON = tuple(encode_basestring_ascii(b.value) for b in _BINDINGS)


def _match_json(
    solver: str,
    n_uavs: int,
    n_vehicles: int,
    pairs: tuple,
    total_saving: float,
    iterations: int,
    certificate: bool | None,
) -> str:
    """The ``match`` JSON, byte for byte what ``json.dumps(payload, indent=2)
    + "\n"`` writes for the payload with these keys, in this order.

    ``pairs`` holds one column per pair key: the UAVs and their vehicles
    (lists of ints), ``y_star``, ``total_time``, ``energy``,
    ``consumption`` and ``saving`` (float64 arrays or lists of floats, each
    written by :func:`_json_floats`) and ``binding`` (a list of
    ``PlanArrays.binding`` codes, each written from a table of their text).
    Each pair is one template, so the pure-Python encoder that ``indent``
    selects never runs.
    """
    uavs, vehicles, *floats, bindings = pairs
    q = encode_basestring_ascii
    items = ",".join(
        f'\n    {{\n      "uav": {i},\n      "vehicle": {j},\n      "y_star": {y},'
        f'\n      "total_time": {t},\n      "energy": {e},\n      "consumption": {c},'
        f'\n      "saving": {s},\n      "binding": {b}\n    }}'
        for i, j, y, t, e, c, s, b in zip(
            uavs, vehicles, *map(_json_floats, floats), map(_BINDING_JSON.__getitem__, bindings)
        )
    )
    pairs_text = f"[{items}\n  ]" if items else "[]"
    return (
        f'{{\n  "solver": {q(solver)},\n  "n_uavs": {n_uavs},\n  "n_vehicles": {n_vehicles},'
        f'\n  "pairs": {pairs_text},\n  "total_saving": {json.dumps(total_saving)},'
        f'\n  "iterations": {iterations},\n  "dual_certificate": {json.dumps(certificate)}\n}}\n'
    )


def _load(path: str) -> Scenario:
    """The scenario file at ``path``; one nested past the parser's
    recursion limit is invalid input, named by its path."""
    try:
        return load_scenario(path)
    except RecursionError as exc:
        raise ValueError(f"{path}: nested too deeply to read ({exc})") from None


def _cmd_match(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    matrix = build_saving_matrix(
        scenario.config, scenario.tasks, scenario.offers, scenario.geoms, limited=args.limited
    )
    result = _solve(matrix, args.solver)
    certificate = (
        verify_duals(matrix, result, result.duals) if result.duals is not None else None
    )
    # The printed pairs, in UAV order, read in bulk from the planned arrays.
    uavs, vehicles = list(result.assignment), list(result.assignment.values())
    at = (np.array(uavs, dtype=np.intp), np.array(vehicles, dtype=np.intp))
    plans = matrix.arrays
    y_star, total_time, energy, consumption, saving = (
        a[at]
        for a in (plans.y_star, plans.total_time, plans.energy, plans.consumption, plans.saving)
    )
    binding = plans.binding[at].tolist()

    if args.format == "json":
        pairs = (uavs, vehicles, y_star, total_time, energy, consumption, saving, binding)
        text = _match_json(
            args.solver, matrix.n_uavs, len(scenario.offers), pairs,
            result.total_saving, result.iterations, certificate,
        )
        _emit(text, args.output)
    else:
        lines = [f"solver: {args.solver}"]
        for i, j, y, s, k in zip(uavs, vehicles, y_star.tolist(), saving.tolist(), binding):
            lines.append(
                f"  uav {i} -> vehicle {j}: y*={_fmt(y)} km, saving={_fmt(s)}, "
                f"binding={_BINDINGS[k].value}"
            )
        unmatched = [i for i in range(matrix.n_uavs) if i not in result.assignment]
        if unmatched:
            lines.append(f"  direct flight: uavs {unmatched}")
        lines.append(f"total_saving: {_fmt(result.total_saving)}")
        if certificate is not None:
            lines.append(f"dual_certificate: {'ok' if certificate else 'FAILED'}")
            lines.append(f"iterations: {result.iterations}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    theta_range = case_theta_range(args.case) if args.case else (0.0, args.theta_max)
    params = GeneratorParams(
        n_uavs=0,
        n_vehicles=args.vehicles,
        theta_range=theta_range,
        **_given(args, GeneratorParams.__match_args__),
    )
    save = None
    if args.emit_scenarios:
        os.makedirs(args.emit_scenarios, exist_ok=True)
        case_tag = f"case{args.case}" if args.case else "custom"

        def save(count: int, trial: int, scenario: Scenario) -> None:
            label = f"{case_tag}_I{count}_t{trial}"
            path = os.path.join(args.emit_scenarios, label + ".json")
            save_scenario(replace(scenario, label=label), path)

    rows = run_experiment(params, args.trials, args.uavs, master_seed=args.seed, on_scenario=save)
    _emit(csv_text(EXPERIMENT_CSV_HEADER, [r.as_csv_row() for r in rows]), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    header, rows = sweep_curves(args.kind, **_given(args, SWEEP_PARAMETERS))
    _emit(csv_text(header, rows), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.scenarios:
        scenario = _load(path)
        print(f"{path}: ok ({len(scenario.tasks)} uavs, {len(scenario.offers)} vehicles)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``uavhitch`` parser, built once per process: each parse starts
    from a fresh namespace, and no default is read from the environment
    (``main`` reads ``UAVHITCH_SEED`` on every call)."""
    parser = argparse.ArgumentParser(
        prog="uavhitch",
        description="Plan, match and simulate UAV hitching on ground vehicles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a single UAV-vehicle pair")
    p.add_argument("--x", type=float, required=True, help="distance to destination (km)")
    p.add_argument("--u", type=float, default=60.0, help="UAV flight speed (km/h)")
    p.add_argument("--v", type=float, required=True, help="vehicle speed (km/h)")
    p.add_argument("--gamma", type=float, help="charging rate (or 'inf')")
    p.add_argument("--theta", type=float, default=0.0, help="direction deviation (radians)")
    p.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")
    p.add_argument("--omega", type=float, help="energy-vs-time weight")
    p.add_argument("--deadline", type=float, help="deadline (h)")
    p.add_argument("--battery-capacity", type=float)
    p.add_argument("--battery-level", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("match", help="match the UAVs of a scenario file to vehicles")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--solver", choices=["msa", "greedy", "brute"], default="msa")
    p.add_argument("--limited", action="store_true", help="respect battery capacities")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("simulate", help="run seeded Monte Carlo experiments")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--case", type=int, choices=[1, 2], help="standard deviation range")
    group.add_argument("--theta-max", type=float, default=math.pi, help="custom theta range")
    p.add_argument(
        "--uavs", type=_counts, default="5,10,20,30,40", help="comma-separated UAV counts"
    )
    p.add_argument("--vehicles", type=_int_at_least, default=40)
    p.add_argument("--trials", type=lambda text: _int_at_least(text, 1), default=100)
    p.add_argument(
        "--seed", type=_int_at_least, help="master seed (default: UAVHITCH_SEED or 0)"
    )
    p.add_argument("--omega", type=float)
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--deadline-factor", type=float)
    p.add_argument("--capacity", type=int)
    p.add_argument("--output", default=None)
    p.add_argument("--emit-scenarios", default=None, help="directory for scenario files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="tabulate consumption/distance curves")
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    for name, kind in SWEEP_PARAMETERS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="check scenario files")
    p.add_argument("scenarios", nargs="+")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except BruteForceSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

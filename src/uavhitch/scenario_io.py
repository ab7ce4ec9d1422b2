"""Scenario files and CSV emission.

A scenario file is JSON with the layout

    {
      "config": {"omega": 0.8, "tol": 1e-09},
      "uavs": [{"x": 5.0, "u": 60.0, "deadline": "inf",
                "battery_capacity": "inf", "battery_level": 0.0}, ...],
      "vehicles": [{"v": 40.0, "gamma": 0.3, "capacity": 1}, ...],
      "theta": [...],          # I*J deviations, row-major, radians
      "seed": 42,
      "label": "case1_I5_t0"
    }

Unbounded values are encoded as the string "inf" (JSON itself has no
infinity). ``theta`` is written flat and row-major; a nested I x J list is
accepted on read.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .model import PairGeometry, PlannerConfig, UavTask, VehicleOffer
from .simlab import Scenario

__all__ = [
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "dump_scenario",
    "csv_text",
]


def _encode(value: float) -> Any:
    return "inf" if value == math.inf else value


def _decode(value: Any, context: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{context}: expected a number or 'inf', got {value!r}")
    return float(value)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "config": {"omega": s.config.omega, "tol": s.config.tol},
        "uavs": [
            {
                "x": t.x,
                "u": t.u,
                "deadline": _encode(t.deadline),
                "battery_capacity": _encode(t.battery_capacity),
                "battery_level": t.battery_level,
            }
            for t in s.tasks
        ],
        "vehicles": [
            {"v": o.v, "gamma": _encode(o.gamma), "capacity": o.capacity} for o in s.offers
        ],
        "theta": [g.theta for row in s.geoms for g in row],
        "seed": s.seed,
        "label": s.label,
    }


def _require_key(d: dict, key: str, context: str) -> Any:
    if key not in d:
        raise ValueError(f"{context}: missing key {key!r}")
    return d[key]


def _require_type(value: Any, kind: type, context: str) -> Any:
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{context} must be {name}, got {type(value).__name__}")
    return value


def _build(kind: type, context: str, *args: Any, **kwargs: Any) -> Any:
    """Construct ``kind``, prefixing a rejected value with the entry it came from."""
    try:
        return kind(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from None


def scenario_from_dict(data: dict) -> Scenario:
    _require_type(data, dict, "scenario")
    cfg_d = _require_type(_require_key(data, "config", "scenario"), dict, "config")
    config = PlannerConfig(
        omega=_decode(_require_key(cfg_d, "omega", "config"), "config.omega"),
        tol=_decode(_require_key(cfg_d, "tol", "config"), "config.tol"),
    )
    tasks = []
    for i, t in enumerate(_require_type(_require_key(data, "uavs", "scenario"), list, "uavs")):
        ctx = f"uavs[{i}]"
        _require_type(t, dict, ctx)
        tasks.append(
            _build(
                UavTask,
                ctx,
                x=_decode(_require_key(t, "x", ctx), f"{ctx}.x"),
                u=_decode(_require_key(t, "u", ctx), f"{ctx}.u"),
                deadline=_decode(t.get("deadline", "inf"), f"{ctx}.deadline"),
                battery_capacity=_decode(
                    t.get("battery_capacity", "inf"), f"{ctx}.battery_capacity"
                ),
                battery_level=_decode(t.get("battery_level", 0.0), f"{ctx}.battery_level"),
            )
        )
    offers = []
    for j, o in enumerate(
        _require_type(_require_key(data, "vehicles", "scenario"), list, "vehicles")
    ):
        ctx = f"vehicles[{j}]"
        _require_type(o, dict, ctx)
        capacity = o.get("capacity", 1)
        if not isinstance(capacity, int) or isinstance(capacity, bool):
            raise ValueError(f"{ctx}.capacity must be an integer, got {capacity!r}")
        offers.append(
            _build(
                VehicleOffer,
                ctx,
                v=_decode(_require_key(o, "v", ctx), f"{ctx}.v"),
                gamma=_decode(o.get("gamma", 0.0), f"{ctx}.gamma"),
                capacity=capacity,
            )
        )

    n_uavs, n_vehicles = len(tasks), len(offers)
    theta = _require_type(_require_key(data, "theta", "scenario"), list, "theta")
    if theta and isinstance(theta[0], list):
        for i, row in enumerate(theta):
            _require_type(row, list, f"theta[{i}]")
        if len(theta) != n_uavs or any(len(row) != n_vehicles for row in theta):
            raise ValueError(
                f"nested theta must be {n_uavs} x {n_vehicles}"
            )
        theta = [t for row in theta for t in row]
    if len(theta) != n_uavs * n_vehicles:
        raise ValueError(
            f"theta has {len(theta)} entries, expected {n_uavs} x {n_vehicles} "
            f"= {n_uavs * n_vehicles}"
        )
    geoms = []
    for i in range(n_uavs):
        row = []
        for j in range(n_vehicles):
            ctx = f"theta[{i},{j}]"
            row.append(_build(PairGeometry, ctx, _decode(theta[i * n_vehicles + j], ctx)))
        geoms.append(row)

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    return Scenario(tasks=tasks, offers=offers, geoms=geoms, config=config, seed=seed, label=label)


def dump_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_scenario(s))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(data)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: list[str], rows: list) -> str:
    """Render rows as CSV. Floats use shortest round-trip formatting so
    identical inputs always produce identical bytes."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"

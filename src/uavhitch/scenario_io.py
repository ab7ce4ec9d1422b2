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
infinity). ``theta`` is written flat and row-major, and a nested I x J list
is accepted on read; in memory it is the (I, J) float64 array ``Scenario.geoms``.

A ``uavs`` or ``vehicles`` entry holds the fields of ``UavTask`` or
``VehicleOffer``, in their order: those with no default are required, the
others default as in the model. An unknown key is rejected by name. The
loader reads each field of every entry into one list, checks its types
once, and fills the scenario's columns (``Scenario.tasks`` and
``offers``), which check each model field once; a fault is named with
the entry it is in (``uavs[i]: ...``), the first in file order. Only when
a list holds a value that is not a number, or an integer past the float
range, are the entries read one at a time, to name it. The writer reads
the columns back the same way, one list per field.

``load_scenario`` parses with orjson, several times faster than ``json`` on
``match``'s inputs, and gives each file the meaning ``json`` gives it.
Where orjson accepts a file its values are ``json``'s, except that an
integer of 2**64 or more, or below -2**63, comes back as a float equal to
``float(int)``, which is what a float field makes of ``json``'s integer.
orjson refuses ``NaN``, ``Infinity``, numbers past the float range and lone
surrogates, which ``json`` accepts. So whenever orjson refuses a file, or
``scenario_from_dict`` refuses orjson's value (a float ``capacity`` or
``seed``, or arrays nested past ``json``'s recursion limit, which orjson
parses), ``json`` reads the file again and decides the value or the error,
with its line and column. orjson is imported on the first load, not with
this module: the import takes 10-15 ms, and the CLI's start-up is timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from typing import Any, get_type_hints

import numpy as np

from .matching import OfferColumns, TaskColumns
from .model import PlannerConfig, UavTask, VehicleOffer
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
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{context}: integer too large for a float") from None


_SCENARIO_KEYS = {"config", "uavs", "vehicles", "theta", "seed", "label"}
_CONFIG_KEYS = {"omega", "tol"}
# Per entry kind, in the model's field order: name -> (default, is an int).
_ENTRY_FIELDS = {
    kind: {f.name: (f.default, get_type_hints(kind)[f.name] is int) for f in fields(kind)}
    for kind in (UavTask, VehicleOffer)
}


def _entry_dicts(entries: TaskColumns | OfferColumns) -> list[dict]:
    """One dict per entry, its fields in the model's order."""
    columns = [[_encode(value) for value in a.tolist()] for a in entries.columns()]
    return [dict(zip(entries.names, values)) for values in zip(*columns)]


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "config": {"omega": s.config.omega, "tol": s.config.tol},
        "uavs": _entry_dicts(s.tasks),
        "vehicles": _entry_dicts(s.offers),
        "theta": s.geoms.ravel().tolist(),
        "seed": s.seed,
        "label": s.label,
    }


def _require_key(d: dict, key: str, context: str) -> Any:
    if key not in d:
        raise ValueError(f"{context}: missing key {key!r}")
    return d[key]


def _reject_unknown(d: dict, known, context: str) -> None:
    unknown = d.keys() - known
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")


def _require_type(value: Any, kind: type, context: str) -> Any:
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{context} must be {name}, got {type(value).__name__}")
    return value


def _entries(columns: type, data: dict, key: str) -> TaskColumns | OfferColumns:
    """The ``key`` list of ``data`` as ``columns``. A rejected value is
    named with the entry it came from, the first in list order."""
    entries = _require_type(_require_key(data, key, "scenario"), list, key)
    values = _field_lists(entries, _ENTRY_FIELDS[columns.kind])
    if values is not None:
        try:
            return columns(*values, context=key)
        except OverflowError:  # an integer past the float range, named below
            pass
    return columns.of(_entry_objects(columns.kind, entries, key))


def _field_lists(entries: list, entry_fields: dict) -> list[list] | None:
    """One list per field of the entries, a number (or an integer for an
    integer field) in each place, or None where an entry needs a closer
    look: it is not an object, has a key that is unknown or missing, or a
    value of the wrong type."""
    if set(map(type, entries)) - {dict} or set().union(*entries) - entry_fields.keys():
        return None
    lists = []
    for name, (default, is_int) in entry_fields.items():
        if default is MISSING:
            try:
                values = [entry[name] for entry in entries]
            except KeyError:
                return None
        else:
            values = [entry.get(name, default) for entry in entries]
        kinds = set(map(type, values))
        if is_int:
            if kinds - {int}:
                return None
        else:
            if str in kinds:
                values = [math.inf if value == "inf" else value for value in values]
                kinds = set(map(type, values))
            if kinds - {float, int}:
                return None
        lists.append(values)
    return lists


def _entry_objects(kind: type, entries: list, key: str) -> list:
    """The entries as ``kind`` instances, one at a time: a rejected value
    is named with the entry it came from."""
    entry_fields = _ENTRY_FIELDS[kind]
    out = []
    for i, entry in enumerate(entries):
        ctx = f"{key}[{i}]"
        _require_type(entry, dict, ctx)
        _reject_unknown(entry, entry_fields, ctx)
        values = []
        for name, (default, is_int) in entry_fields.items():
            value = entry.get(name, default)
            if value is default:  # the key is absent, or holds the default itself
                if value is MISSING:
                    raise ValueError(f"{ctx}: missing key {name!r}")
            elif not is_int:
                value = _decode(value, f"{ctx}.{name}")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{ctx}.{name} must be an integer, got {value!r}")
            values.append(value)
        try:
            out.append(kind(*values))
        except ValueError as exc:
            raise ValueError(f"{ctx}: {exc}") from None
    return out


def _check_theta_entries(theta: list, n_vehicles: int) -> None:
    """Check each flat theta entry as :func:`_decode` does, naming the
    first bad one by its pair."""
    for k, t in enumerate(theta):
        i, j = divmod(k, n_vehicles)
        _decode(t, f"theta[{i},{j}]")


def scenario_from_dict(data: dict) -> Scenario:
    _require_type(data, dict, "scenario")
    _reject_unknown(data, _SCENARIO_KEYS, "scenario")
    cfg_d = _require_type(_require_key(data, "config", "scenario"), dict, "config")
    _reject_unknown(cfg_d, _CONFIG_KEYS, "config")
    config = PlannerConfig(
        omega=_decode(_require_key(cfg_d, "omega", "config"), "config.omega"),
        tol=_decode(_require_key(cfg_d, "tol", "config"), "config.tol"),
    )
    tasks = _entries(TaskColumns, data, "uavs")
    offers = _entries(OfferColumns, data, "vehicles")

    n_uavs, n_vehicles = len(tasks), len(offers)
    theta = _require_type(_require_key(data, "theta", "scenario"), list, "theta")
    if theta and isinstance(theta[0], list):
        for i, row in enumerate(theta):
            _require_type(row, list, f"theta[{i}]")
        if len(theta) != n_uavs or any(len(row) != n_vehicles for row in theta):
            raise ValueError(f"nested theta must be {n_uavs} x {n_vehicles}")
        theta = [t for row in theta for t in row]
    if len(theta) != n_uavs * n_vehicles:
        raise ValueError(
            f"theta has {len(theta)} entries, expected {n_uavs} x {n_vehicles} "
            f"= {n_uavs * n_vehicles}"
        )
    kinds = set(map(type, theta))
    if str in kinds:
        theta = [math.inf if t == "inf" else t for t in theta]
        kinds = set(map(type, theta))
    if kinds - {float, int}:  # else every entry is a plain number
        _check_theta_entries(theta, n_vehicles)
    try:
        geoms = np.array(theta, dtype=np.float64).reshape(n_uavs, n_vehicles)
    except OverflowError:  # an int past the float range
        _check_theta_entries(theta, n_vehicles)
        raise

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
    import orjson

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return scenario_from_dict(orjson.loads(raw))
    except (ValueError, RecursionError):  # json decides (see the module docstring)
        pass
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc
    return scenario_from_dict(data)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return float.__repr__(value)  # a numpy float's repr names its type
    return str(value)


def csv_text(header: list[str], rows: list) -> str:
    """Render rows as CSV. Floats use shortest round-trip formatting so
    identical inputs always produce identical bytes."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"

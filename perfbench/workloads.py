"""Benchmark workloads: seeded inputs, the CLI argv of each op, and output checks.

Every op goes through ``uavhitch.cli.main(argv)`` with flags that are part of
the stable CLI surface. The program only ever sees the generated inputs: the
fleet scenario files are written here during set-up, and the simulate seeds
are derived here from the benchmark seed.

Why these three workloads:

- ``paper_sim`` is the paper's Monte Carlo experiment (case 1, 5..40 UAVs
  against 40 vehicles). The saving-matrix build dominates; the matcher works
  on at most 40 columns. Pair plans split between interior and no-hitch.
- ``fleet_cap`` matches 400 UAVs to 40 vehicles of capacity 10, which the
  matcher expands to 400 columns: ``msa_match`` dominates and the build is
  small (16k pairs).
- ``fleet_mixed`` is a 200 x 200 battery-limited fleet with deadlines,
  heterogeneous charging and some battery-swap vehicles. The build dominates
  again, but its plans are mostly deadline-bound or no-hitch, so a planner
  change that only helps the interior branch moves ``paper_sim`` and leaves
  this one flat.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Output checks: relative tolerance of a match total against the reference.
TOTAL_RTOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload at one scale."""

    n_inputs: int  # distinct inputs each run cycles through
    n_uavs: int = 0
    n_vehicles: int = 0
    capacity: int = 1
    uav_counts: str = ""
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    smoke: Size
    # Fixed tail percentile of op latency: the highest that leaves at least
    # ten samples above it at the benchmark's run length on a 2-CPU Xeon.
    tail_pct: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_sim",
            full=Size(n_inputs=6, n_vehicles=40, uav_counts="5,10,20,30,40", trials=10),
            smoke=Size(n_inputs=2, n_vehicles=6, uav_counts="3,5", trials=2),
            tail_pct=85,
        ),
        Workload(
            "fleet_cap",
            full=Size(n_inputs=8, n_uavs=400, n_vehicles=40, capacity=10),
            smoke=Size(n_inputs=2, n_uavs=30, n_vehicles=4, capacity=5),
            tail_pct=75,
        ),
        Workload(
            "fleet_mixed",
            full=Size(n_inputs=6, n_uavs=200, n_vehicles=200),
            smoke=Size(n_inputs=2, n_uavs=20, n_vehicles=20),
            tail_pct=60,
        ),
    )
}


def input_seeds(workload: str, seed: int, n: int) -> list[int]:
    """The fixed list of per-input seeds a run cycles through."""
    tag = sum(ord(c) << (8 * k) for k, c in enumerate(workload))
    state = np.random.SeedSequence([seed, tag]).generate_state(n, np.uint32)
    return [int(s) >> 1 for s in state]  # keep them positive 31-bit ints


def _inf(value: float):
    return "inf" if math.isinf(value) else float(value)


def fleet_cap_scenario(size: Size, seed: int) -> dict:
    """Case-1 angles, homogeneous vehicles (v=40, gamma=0.3), no battery
    limit or deadline, every vehicle carrying ``size.capacity`` UAVs."""
    rng = np.random.default_rng(seed)
    xs = 20.0 * (1.0 - rng.random(size.n_uavs))
    theta = rng.uniform(0.0, math.pi, size.n_uavs * size.n_vehicles)
    return {
        "config": {"omega": 0.8, "tol": 1e-9},
        "uavs": [{"x": float(x), "u": 60.0} for x in xs],
        "vehicles": [
            {"v": 40.0, "gamma": 0.3, "capacity": size.capacity}
            for _ in range(size.n_vehicles)
        ],
        "theta": theta.tolist(),
        "seed": seed,
        "label": f"fleet_cap_{seed}",
    }


def fleet_mixed_scenario(size: Size, seed: int) -> dict:
    """Deadline 1.3x the direct flight time, a finite battery at a random
    level, gamma uniform on [0, 1.5], about 10% battery-swap vehicles."""
    rng = np.random.default_rng(seed)
    u = 60.0
    xs = 20.0 * (1.0 - rng.random(size.n_uavs))
    caps = rng.uniform(0.05, 0.5, size.n_uavs)
    levels = caps * rng.random(size.n_uavs)
    vs = rng.uniform(20.0, 60.0, size.n_vehicles)
    gammas = rng.uniform(0.0, 1.5, size.n_vehicles)
    gammas[rng.random(size.n_vehicles) < 0.1] = math.inf
    theta = rng.uniform(0.0, math.pi, size.n_uavs * size.n_vehicles)
    return {
        "config": {"omega": 0.8, "tol": 1e-9},
        "uavs": [
            {
                "x": float(x),
                "u": u,
                "deadline": 1.3 * float(x) / u,
                "battery_capacity": float(c),
                "battery_level": float(lv),
            }
            for x, c, lv in zip(xs, caps, levels)
        ],
        "vehicles": [
            {"v": float(v), "gamma": _inf(g), "capacity": 1} for v, g in zip(vs, gammas)
        ],
        "theta": theta.tolist(),
        "seed": seed,
        "label": f"fleet_mixed_{seed}",
    }


def reference_total(scenario_path: str, limited: bool) -> float:
    """Optimal total saving of a scenario file, from scipy's assignment
    solver on the program's capacity-expanded weight matrix."""
    from scipy.optimize import linear_sum_assignment
    from uavhitch.matching import build_saving_matrix
    from uavhitch.scenario_io import load_scenario

    s = load_scenario(scenario_path)
    m = build_saving_matrix(s.config, s.tasks, s.offers, s.geoms, limited=limited)
    w = np.asarray(m.weights, dtype=float)
    rows, cols = linear_sum_assignment(w, maximize=True)
    total = 0.0
    for r, c in zip(rows, cols):  # summed in UAV order, edges above tol only
        if w[r, c] > m.tol:
            total += float(w[r, c])
    return total


def prepare(name: str, seed: int, workdir: str, smoke: bool = False) -> tuple[list[dict], dict]:
    """Write the inputs of one run into ``workdir`` and return its ops.

    Each op is ``{"argv", "output", "check"}``; ``check`` holds what the
    output must match. The second value records the input sizes.
    """
    from uavhitch.cli import main as cli_main

    w = WORKLOADS[name]
    size = w.smoke if smoke else w.full
    ops = []
    for k, s in enumerate(input_seeds(name, seed, size.n_inputs)):
        output = os.path.join(workdir, f"out{k}")
        if name == "paper_sim":
            args = ["simulate", "--case", "1", "--uavs", size.uav_counts,
                    "--vehicles", str(size.n_vehicles), "--trials", str(size.trials),
                    "--seed", str(s)]
            ref = os.path.join(workdir, f"ref{k}.csv")
            if cli_main(args + ["--output", ref]) != 0:
                raise RuntimeError(f"reference simulate run failed for seed {s}")
            with open(ref, encoding="utf-8") as fh:
                ref_text = fh.read()
            reason = check_simulate(ref_text, ref_text)
            if reason:
                raise RuntimeError(f"reference CSV for seed {s} fails its own check: {reason}")
            check = {"kind": "simulate", "reference": ref}
        else:
            limited = name == "fleet_mixed"
            make = fleet_mixed_scenario if limited else fleet_cap_scenario
            path = os.path.join(workdir, f"scenario{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(make(size, s), fh)
            args = ["match", path] + (["--limited"] if limited else []) + ["--format", "json"]
            check = {"kind": "match", "total_saving": reference_total(path, limited)}
        ops.append({"argv": args + ["--output", output], "output": output, "check": check})
    sizes = {k: v for k, v in vars(size).items() if v}
    return ops, sizes


def check_simulate(text: str, reference: str) -> str | None:
    """Reason the simulate output is wrong, or None if it is right."""
    if text != reference:
        return "CSV differs from the reference bytes for this seed"
    lines = text.splitlines()
    header = lines[0].split(",")
    idx = {k: header.index(k) for k in ("mean_msa", "mean_greedy", "mean_direct")}
    for line in lines[1:]:
        cells = line.split(",")
        msa, greedy, direct = (float(cells[idx[k]]) for k in ("mean_msa", "mean_greedy", "mean_direct"))
        if not msa <= greedy <= direct:
            return f"row {cells[0]}: mean_msa <= mean_greedy <= mean_direct fails"
    return None


def check_match(text: str, expected_total: float) -> str | None:
    """Reason the match output is wrong, or None if it is right."""
    data = json.loads(text)
    if not isinstance(data, dict):
        return "output is not a JSON object"
    if data.get("dual_certificate") is not True:
        return "dual certificate is not true"
    total = data.get("total_saving")
    if not isinstance(total, (int, float)) or not abs(total - expected_total) <= TOTAL_RTOL * abs(
        expected_total
    ):
        return f"total_saving {total!r} differs from the reference {expected_total!r}"
    return None


def check_output(op: dict) -> str | None:
    """Check the output file an op wrote against the op's reference."""
    try:
        with open(op["output"], encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return f"no output: {exc}"
    check = op["check"]
    try:
        if check["kind"] == "simulate":
            with open(check["reference"], encoding="utf-8") as fh:
                return check_simulate(text, fh.read())
        return check_match(text, check["total_saving"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"

"""Steadiness of the benchmark: repeat runs and report each metric's spread.

    python3 perfbench/steady.py --workload fleet_cap --runs 10 --seconds 30
    python3 perfbench/steady.py --workload all --runs 10 --seconds 30 --out steadiness.json

Each run is one ``run.py`` process with its own seed (``--seed-base`` + run
index, or the same seed every time with ``--same-seed``). For every metric it
prints the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. A spread below a third of the bound is steady enough. With
``--same-seed --trace 1`` it also says whether every exact count repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def bounds() -> dict[str, float]:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result_line), json.loads(env_line)["env"], wall


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--out", default=None, help="write every run's values to this JSON file")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    limits = bounds()
    record: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in names:
        results, envs, walls = [], [], []
        for i in range(args.runs):
            seed = args.seed_base if args.same_seed else args.seed_base + i
            result, env, wall = one_run(name, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            results.append(result)
            envs.append(env)
            walls.append(wall)
        print(f"== {name}: {args.runs} runs, {args.seconds:g} s each, "
              f"median run wall {statistics.median(walls):.1f} s")
        table = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            table[metric] = {"values": values, **summarize(values)}
            s = table[metric]
            bound = limits.get(metric)
            verdict = "" if bound is None else f"  bound {bound:g}  spread/bound {s['spread'] / bound:.2f}"
            print(f"  {metric:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{verdict}")
        if args.same_seed and args.trace:
            counts = [{k: r["metrics"][k]["value"] for k in run.COUNT_METRICS} for r in results]
            print(f"  exact counts repeat across runs: {all(c == counts[0] for c in counts)}")
        record["workloads"][name] = {"run_wall_s": walls, "metrics": table, "env": envs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

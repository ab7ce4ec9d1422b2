"""uavhitch benchmark: one run of one workload, or of all of them.

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the program is run from its ``src`` (``PYTHONPATH=src``, as the tests do).

A run writes the workload's inputs and reference outputs (set-up, not
timed), measures ``setup_s`` as the median time for a fresh interpreter to
import ``uavhitch.cli``, then starts ``worker.py`` in a fresh process that
runs the ops in a closed loop for ``--seconds`` of op time and checks each
output. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the raw wall-clock figures among them.

Every time is wall-clock, taken with tracing off and scaled by the machine
speed sampled just before and after it (see ``speed.py``), because this kind
of host runs the same op 1.5-2x slower for tens of seconds at a time.

With ``--trace 0`` the metrics are the end-to-end ones:
  ops_per_s     completed ops per second of op time
  op_ms_p50     median op latency
  op_ms_tail    op latency at the workload's fixed tail percentile
  setup_s       median time to import uavhitch.cli in a fresh interpreter
  peak_rss_mb   peak resident set of the measuring process
  ok_frac       share of attempted ops that exited 0 and passed every check
                (1 - fail_frac; fail_frac itself is printed on the env line)

With ``--trace 1`` they are the per-layer ones, from a run that alternates
traced and untraced ops. The prediction each stands for:
  matching.build_saving_matrix.*  moves op_ms_p50/ops_per_s on paper_sim and
      fleet_mixed, little on fleet_cap; fewer per-pair objects also lower
      peak_rss_mb on fleet_mixed
  matching.msa_match.*            moves fleet_cap first, then fleet_mixed,
      barely paper_sim
  simlab.generate_scenario.share, simlab.run_experiment.share  paper_sim only
  scenario_io.load_scenario.*     fleet_cap and fleet_mixed, a few percent
  greedy_match, verify_duals, csv_text, cli.other  small; predicted unchanged
  planner.*, matching.matched_pairs, .pairs, .columns, .iterations  exact
      counts over one pass of the run's inputs; they repeat for a seed
  trace.overhead_frac             traced op time / untraced op time - 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
IMPORT_PROBES = 7
RUN_LIMIT_S = 170.0  # one run must end within 180 s

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

COUNT_METRICS = {
    "planner.binding.interior": "binding.interior",
    "planner.binding.deadline": "binding.deadline",
    "planner.binding.battery_full": "binding.battery_full",
    "planner.binding.no_hitch": "binding.no_hitch",
    "planner.swap_and_depart": "swap_and_depart",
    "matching.matched_pairs": "matched_pairs",
    "matching.build_saving_matrix.pairs": "pairs",
    "matching.build_saving_matrix.columns": "columns",
    "matching.msa_match.iterations": "iterations",
    "scenario_io.load_scenario.bytes": "load_bytes",
}


def per_layer_units(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".us_per_pair"):
        return "us"
    if name.endswith((".share", "_ratio", "_frac")):
        return "frac"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".dual_gap"):
        return "flight-h"
    return "count"


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def import_times_s(env: dict) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing uavhitch.cli, with the
    machine-speed scale sampled before each."""
    times, scales = [], []
    for _ in range(IMPORT_PROBES):
        before = speed.scale()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import uavhitch.cli"], env=env)
        # A blocking wait; wait(timeout=...) would poll and round the time up.
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        rc = proc.wait()
        times.append(time.perf_counter() - t0)
        killer.cancel()
        scales.append((before + speed.scale()) / 2)
        if rc != 0:
            raise RuntimeError(f"importing uavhitch.cli exited with code {rc}")
    return times, scales


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timing_metrics(latencies: list[float], import_s: list[float], tail_pct: int) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail(latencies, tail_pct),
        "setup_s": statistics.median(import_s),
    }


def scaled(times: list[float], scales: list[float]) -> list[float]:
    return [t * s for t, s in zip(times, scales)]


def per_layer_metrics(result: dict) -> dict:
    totals: dict[str, float] = {}
    for counts in result["counts"]:
        for key, value in counts.items():
            if key == "dual_gap":
                totals[key] = max(totals.get(key, 0.0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    metrics = dict(result["layers"])
    for name, key in COUNT_METRICS.items():
        metrics[name] = totals.get(key, 0)
    metrics["matching.msa_match.dual_gap"] = totals.get("dual_gap", 0.0)
    pairs = totals.get("pairs", 0)
    metrics["matching.useful_ratio"] = totals.get("matched_pairs", 0) / pairs if pairs else 0.0
    plain = scaled(result["latencies_s"], result["scales"])
    traced = scaled(result["traced_s"], result["traced_scales"])
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "uavhitch", "cli.py")):
        print(f"error: no program to measure: {SRC}/uavhitch/cli.py is missing", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy

    workload = workloads.WORKLOADS[args.workload]
    env = program_env()
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        import_s, import_scales = import_times_s(env)
        ops, sizes = workloads.prepare(args.workload, args.seed, run_dir, smoke=args.smoke)
        job = {
            "ops": ops,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans_path": os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"),
        }
        job_path = os.path.join(run_dir, "job.json")
        result_path = os.path.join(run_dir, "result.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
            env=env,
            timeout=budget,
        )
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    n_ops = len(result["latencies_s"])
    raw = timing_metrics(result["latencies_s"], import_s, workload.tail_pct)
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "input_sizes": sizes,
        "measured_ops": n_ops,
        "attempted": result["attempted"],
        "fail_frac": result["failed"] / result["attempted"],
        "fail_reasons": result["reasons"],
        "op_ms_tail_percentile": workload.tail_pct,
        "samples_beyond_tail": round(n_ops * (1 - workload.tail_pct / 100)),
        "machine_scale_median": statistics.median(result["scales"]),
        "raw_wall_clock": raw,
    }
    if args.trace:
        metrics = per_layer_metrics(result)
        units = {name: per_layer_units(name) for name in metrics}
        environment["spans_file"] = os.path.relpath(job["spans_path"], ROOT)
    else:
        metrics = timing_metrics(
            scaled(result["latencies_s"], result["scales"]),
            scaled(import_s, import_scales),
            workload.tail_pct,
        )
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["ok_frac"] = (result["attempted"] - result["failed"]) / result["attempted"]
        units = END_TO_END_UNITS
    print(json.dumps({"env": environment}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Run every workload one after another, each in its own process, and
    print each metric by name with its unit."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        env_line, result_line = proc.stdout.strip().splitlines()[-2:]
        print(env_line)
        result = json.loads(result_line)
        for key in ("attempted", "failed"):
            merged[key] += result[key]
        merged["correct"] = merged["correct"] and result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:12s} {metric:40s} {m['value']:.6g} {m['unit']}")
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

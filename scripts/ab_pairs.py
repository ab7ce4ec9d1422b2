"""Alternating parent/change pairs of the benchmark, summarised.

    python scripts/ab_pairs.py --parent HEAD~1 --first-seed 2401 --pairs 10 \\
        --workloads fleet_cap,fleet_mixed,paper_sim --seconds 30 \\
        --workdir /tmp/ab --json pairs.json

The parent tree is ``git archive REF`` unpacked under ``--workdir`` and
removed at the end; the change is this working tree. For each seed, and each workload in turn,
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` runs once on
each tree, one run after the other: the parent first on odd pair numbers
(the first pair is number 1), the change first on even ones. Each run is
waited for, so no process outlives the script.

The output is one JSON object with three sections:
  trees                     the code each side measured: the parent ref and
                            its commit, and the change's HEAD commit with
                            ``dirty`` set when a tracked file differs from it
  pairs                     per workload: the seeds, the run order, and each
                            end-to-end metric's per-seed values on each side
                            (plus the raw, unscaled ops_per_s)
  end_to_end_median_change  per workload and metric: the change's wins, the
                            median change, and whether it is within the
                            metric's ``bound`` in BENCHMARK.json, read in the
                            metric's ``better`` direction; plus the claim
                            rule's result (see ``summarize``)

With ``--json FILE`` the object is also written to FILE after every pair,
so a run that is stopped keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900

# The claim rule: the change wins at least this share of the pairs, and the
# two medians differ, in the better direction, by more than the parent's
# interquartile range.
CLAIM_WIN_SHARE = 0.9


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], with the inclusive method."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's paired runs; ``parent[k]`` and ``change[k]`` are
    the k-th pair.

    A pair is a win when the change is strictly better. ``median_change_frac``
    is the change's median over the parent's, minus 1; it is within the bound
    when it is not worse than ``bound`` in the ``better`` direction.
    ``claim_met`` applies the claim rule: wins in at least 90% of the pairs,
    and a median gap in the better direction larger than the parent's IQR.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    if pq[1]:
        frac = cq[1] / pq[1] - 1.0
    else:  # a parent median of 0: any change is infinitely large
        frac = math.copysign(math.inf, cq[1]) if cq[1] else 0.0
    gap = sign * (cq[1] - pq[1])
    return {
        "change_wins": wins,
        "pairs": len(parent),
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "median_change_frac": frac,
        "bound": bound,
        "within_bound": sign * frac >= -bound,
        "claim_met": wins >= math.ceil(CLAIM_WIN_SHARE * len(parent)) and gap > pq[2] - pq[0],
    }


def summarize_all(pairs: dict, end_to_end: list[dict]) -> dict:
    """``end_to_end_median_change`` for every workload and metric in ``pairs``."""
    out = {}
    for workload, record in pairs.items():
        for metric in end_to_end:
            sides = record["metrics"].get(metric["name"])
            if sides and sides["parent"]:
                out[f"{workload}.{metric['name']}"] = summarize(
                    sides["parent"], sides["change"], metric["better"], metric["bound"]
                )
    return out


def trees(parent_ref: str, root: str = ROOT) -> dict:
    """The ``trees`` record of a run comparing ``parent_ref`` with the
    working tree at ``root``. Untracked files do not make it dirty."""

    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              check=True)
        return proc.stdout.strip()

    parent = git("rev-parse", "--verify", parent_ref + "^{commit}")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "parent": {"ref": parent_ref, "commit": parent},
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": dirty},
    }


def archive(ref: str, dest: str) -> None:
    """Unpack ``git archive ref`` of this repository into ``dest``."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", ref], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run on ``tree``: its env line and its metric values."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    metrics = json.loads(result_line)["metrics"]
    return json.loads(env_line)["env"], {k: m["value"] for k, m in metrics.items()}


def run_pairs(args, end_to_end: list[dict], parent_tree: str) -> int:
    measured = trees(args.parent)
    archive(args.parent, parent_tree)
    paths = {"parent": parent_tree, "change": ROOT}
    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    pairs = {
        w: {"seeds": [], "order": "parent first on odd pair numbers, change first on even",
            "metrics": {m["name"]: {"parent": [], "change": []} for m in end_to_end},
            "raw_wall_clock_ops_per_s": {"parent": [], "change": []}}
        for w in workloads
    }
    result = {}
    for number, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if number % 2 else ("change", "parent")
        for workload in workloads:
            record = pairs[workload]
            for side in order:
                env, values = run_once(paths[side], workload, seed, args.seconds)
                for name, sides in record["metrics"].items():
                    sides[side].append(values[name])
                record["raw_wall_clock_ops_per_s"][side].append(env["raw_wall_clock"]["ops_per_s"])
            record["seeds"].append(seed)
            print(f"pair {number} seed {seed} {workload}: ops_per_s parent "
                  f"{record['metrics']['ops_per_s']['parent'][-1]:.3f} change "
                  f"{record['metrics']['ops_per_s']['change'][-1]:.3f}", file=sys.stderr)
        result = {"trees": measured, "pairs": pairs,
                  "end_to_end_median_change": summarize_all(pairs, end_to_end)}
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
    print(json.dumps(result, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent tree")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="paper_sim,fleet_cap,fleet_mixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workdir", help="where to unpack the parent tree (default: a temp dir)")
    parser.add_argument("--json", help="also write the result here, after every pair")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=args.workdir)
    try:
        return run_pairs(args, end_to_end, os.path.join(scratch, "parent"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

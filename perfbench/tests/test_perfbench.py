"""Tests of the benchmark itself, at the quick smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from uavhitch.cli import main as cli_main  # noqa: E402

NAMES = list(workloads.WORKLOADS)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench_run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def smoke_result(name: str, trace: int, seed: int = 7) -> dict:
    proc = bench_run("--workload", name, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tampered_texts(name: str, text: str) -> list[str]:
    if name == "paper_sim":
        header, first, *rest = text.splitlines(keepends=True)
        cells = first.split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-12))  # mean_msa, last bits only
        return [header + ",".join(cells) + "".join(rest), text + "\n", ""]
    data = json.loads(text)
    off_total = dict(data, total_saving=data["total_saving"] * (1 + 1e-6))
    no_certificate = dict(data, dual_certificate=False)
    return [json.dumps(off_total), json.dumps(no_certificate), "{", "[]"]


@pytest.mark.parametrize("name", NAMES)
def test_tampered_output_counts_as_failed(tmp_path, name):
    op = workloads.prepare(name, 7, str(tmp_path), smoke=True)[0][0]
    *_, reason = worker.run_op(cli_main, op)
    assert reason is None
    with open(op["output"], encoding="utf-8") as fh:
        text = fh.read()
    for bad in tampered_texts(name, text):
        with open(op["output"], "w", encoding="utf-8") as fh:
            fh.write(bad)
        assert workloads.check_output(op) is not None, bad[:200]
    os.remove(op["output"])
    assert workloads.check_output(op) is not None


def test_simulate_rows_must_order_msa_greedy_direct():
    header = "uav_count,n_trials,mean_direct,mean_greedy,mean_msa\n"
    good = header + "5,2,3.0,2.0,1.0\n"
    bad = header + "5,2,3.0,1.0,2.0\n"
    assert workloads.check_simulate(good, good) is None
    assert workloads.check_simulate(bad, bad) is not None


def test_wrong_outputs_feed_the_failed_count(tmp_path):
    ops = workloads.prepare("fleet_cap", 7, str(tmp_path), smoke=True)[0]
    good = worker.plain_loop(cli_main, ops, seconds=0.0)
    assert (good["attempted"], good["failed"]) == (len(ops), 0)
    for op in ops:
        op["check"]["total_saving"] += 1.0
    bad = worker.plain_loop(cli_main, ops, seconds=0.0)
    assert bad["failed"] == bad["attempted"] == len(ops)


@pytest.mark.parametrize("name", NAMES)
def test_result_line_follows_the_contract(name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke_result(name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat_for_a_seed(name):
    first, second = (smoke_result(name, trace=1) for _ in range(2))
    for metric in run.COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    other_seed = smoke_result(name, trace=1, seed=8)
    assert any(
        other_seed["metrics"][m] != first["metrics"][m] for m in run.COUNT_METRICS
    ), "counts should depend on the inputs"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "fleet_cap", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The measured process of one benchmark run.

``run.py`` starts this script in a fresh interpreter, with ``PYTHONPATH``
pointing at the repository's ``src`` and BLAS/OpenMP threads set to 1, after
it has written the inputs and references. It runs a closed loop with one
client: the next op starts only after the last one finished and its output
was checked. Only the ``uavhitch.cli.main(argv)`` call is timed; just
before and just after it, ``speed.scale()`` samples the machine's speed.

    python3 perfbench/worker.py JOB.json RESULT.json

With ``"trace": true`` in the job, ops alternate between traced and
untraced runs of the same input, so the tracing overhead is measured on
the same work.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter

import spans
import speed
import workloads


def run_op(main, op: dict, tracer: spans.Tracer | None = None, op_id: int = 0):
    """Run one op; return (seconds, machine-speed scale, failure reason or None)."""
    try:
        os.remove(op["output"])
    except FileNotFoundError:
        pass
    before = speed.scale()
    t0 = perf_counter()
    try:
        if tracer is None:
            rc = main(op["argv"])
        else:
            rc = tracer.run_op(op_id, main, op["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that crashes is a failed op, not a dead benchmark
        traceback.print_exc()
        rc = type(exc).__name__
    dt = perf_counter() - t0
    scale = (before + speed.scale()) / 2
    if rc != 0:
        return dt, scale, f"exit code {rc}"
    return dt, scale, workloads.check_output(op)


class Tally:
    """Attempted and failed ops, keeping the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def plain_loop(main, ops: list[dict], seconds: float) -> dict:
    """Run ops in a closed loop until ``seconds`` of op time have passed and
    every input has run at least once."""
    tally = Tally()
    latencies, scales = [], []
    n = 0
    while sum(latencies) < seconds or n < len(ops):
        dt, scale, reason = run_op(main, ops[n % len(ops)])
        tally.add(reason)
        latencies.append(dt)
        scales.append(scale)
        n += 1
    return {"latencies_s": latencies, "scales": scales, **vars(tally)}


def traced_loop(main, ops: list[dict], seconds: float) -> tuple[dict, spans.Tracer]:
    """Run each input twice per round, once traced and once not, swapping
    the order every round. Counts come from the first traced run of each
    input, so they cover every input exactly once."""
    tracer = spans.Tracer()
    tally = Tally()
    plain, traced = [], []  # (seconds, scale) per op
    counts_of: dict[int, dict] = {}
    input_of: dict[int, int] = {}
    scale_of: dict[int, float] = {}
    n = 0
    while sum(t for t, _ in plain + traced) < seconds or len(counts_of) < len(ops):
        k = n % len(ops)
        for use_trace in ((True, False) if n % 2 == 0 else (False, True)):
            if use_trace:
                tracer.capture = k not in counts_of
                dt, scale, reason = run_op(main, ops[k], tracer, op_id=n)
                traced.append((dt, scale))
                input_of[n], scale_of[n] = k, scale
                if tracer.capture:
                    counts_of[k] = spans.exact_counts(tracer.captured)
                    tracer.captured.clear()
                    tracer.capture = False
            else:
                dt, scale, reason = run_op(main, ops[k])
                plain.append((dt, scale))
            tally.add(reason)
        n += 1
    pairs_per_op = {op_id: counts_of[k]["pairs"] for op_id, k in input_of.items()}
    result = {
        "latencies_s": [t for t, _ in plain],
        "scales": [s for _, s in plain],
        "traced_s": [t for t, _ in traced],
        "traced_scales": [s for _, s in traced],
        "layers": spans.layer_metrics(tracer.spans, pairs_per_op, scale_of),
        "counts": [dict(counts_of[k]) for k in range(len(ops))],
        **vars(tally),
    }
    return result, tracer


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from uavhitch.cli import main as cli_main

    ops = job["ops"]
    # Warm-up: one unmeasured op so lazy imports and first-call costs are paid.
    run_op(cli_main, ops[0])
    if job["trace"]:
        result, tracer = traced_loop(cli_main, ops, job["seconds"])
        tracer.write(job["spans_path"])
    else:
        result = plain_loop(cli_main, ops, job["seconds"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

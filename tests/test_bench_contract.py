"""The program surface the benchmark in ``perfbench/`` relies on.

The benchmark changes only on purpose, so a rename in the program must not
break it silently. It runs ops through ``uavhitch.cli.main``, wraps the layer
functions the CLI and ``simlab`` reach by module attribute, computes reference
totals from ``Scenario.geoms`` and ``SavingMatrix.weights``, and counts plan
bindings through ``SavingMatrix.plans`` and ``column_origin``. This test runs
every workload's smoke-size ops through that traced path, about a second in
all; the benchmark's own tests (``python3 -m pytest perfbench/tests -q``)
take over a minute.
"""

import os
import sys

import pytest

pytest.importorskip("scipy")  # the match workloads' reference totals use it

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

from uavhitch.cli import main  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_run_traced_and_pass_their_checks(tmp_path, name):
    ops, _ = workloads.prepare(name, 7, str(tmp_path), smoke=True)
    tracer = spans.Tracer()
    tracer.capture = True
    for k, op in enumerate(ops):
        assert tracer.run_op(k, main, op["argv"]) == 0
        assert workloads.check_output(op) is None
    counts = spans.exact_counts(tracer.captured)
    assert counts["pairs"] > 0
    bindings = sum(n for key, n in counts.items() if key.startswith("binding."))
    assert bindings == counts["pairs"]

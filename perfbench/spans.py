"""Layer spans for the traced run, recorded from outside the program.

The tracer swaps the module attributes through which the CLI and the
simulation loop reach each layer (``uavhitch.cli.build_saving_matrix``,
``uavhitch.simlab.msa_match``, ...) for wrappers that record a span, so the
calls are timed exactly where the CLI makes them and no program file
changes. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

OP = "cli.main"

# (module, attribute, layer) for every layer call the CLI or simlab makes.
# One layer may be reached through several modules.
PATCH_POINTS = [
    ("uavhitch.cli", "load_scenario", "scenario_io.load_scenario"),
    ("uavhitch.cli", "build_saving_matrix", "matching.build_saving_matrix"),
    ("uavhitch.cli", "msa_match", "matching.msa_match"),
    ("uavhitch.cli", "verify_duals", "matching.verify_duals"),
    ("uavhitch.cli", "csv_text", "scenario_io.csv_text"),
    ("uavhitch.cli", "run_experiment", "simlab.run_experiment"),
    ("uavhitch.simlab", "generate_scenario", "simlab.generate_scenario"),
    ("uavhitch.simlab", "build_saving_matrix", "matching.build_saving_matrix"),
    ("uavhitch.simlab", "msa_match", "matching.msa_match"),
    ("uavhitch.simlab", "greedy_match", "matching.greedy_match"),
]

TIMED_ON_EVERY_WORKLOAD = {"matching.build_saving_matrix", "matching.msa_match", "cli.other"}

# Layers whose return values the exact counts are read from.
CAPTURED = {"matching.build_saving_matrix", "matching.msa_match", "scenario_io.load_scenario"}


class Tracer:
    """Records spans ``(name, start, end, parent, op_id)`` in memory.

    ``parent`` is the index of the enclosing span in ``spans`` (-1 for an
    op). While ``capture`` is set, the results of the layers in
    ``CAPTURED`` are kept in ``captured`` so the counts can be read from
    them after the op, outside its timed region.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.captured: list[tuple[str, tuple, object]] = []
        self.capture = False
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if self.capture and layer in CAPTURED:
                self.captured.append((layer, args, result))
            return result

        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self._op_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, op_id)

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as one traced op, with every layer wrapped."""
        self._op_id = op_id
        for module_name, attr, layer in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        index = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(index)
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times(spans: list[tuple[str, float, float, int, int]]) -> dict[int, dict[str, float]]:
    """Per op id, each layer's self time in seconds: its spans' durations
    minus the time their direct child spans cover. The op span's own self
    time is reported as ``cli.other``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for k, (name, start, end, _, op_id) in enumerate(spans):
        layer = "cli.other" if name == OP else name
        per_op[op_id][layer] += end - start - child_time[k]
    return per_op


def op_durations(spans) -> dict[int, float]:
    return {op_id: end - start for name, start, end, _, op_id in spans if name == OP}


def exact_counts(captured: list[tuple[str, tuple, object]]) -> Counter:
    """Exact counts read from the SavingMatrix / MatchResult objects the
    layers returned. Duplicated capacity columns count once per pair."""
    c: Counter = Counter()
    for layer, args, result in captured:
        if layer == "matching.build_saving_matrix":
            first_cols: dict[int, int] = {}
            for j, vehicle in enumerate(result.column_origin):
                first_cols.setdefault(vehicle, j)
            c["pairs"] += result.n_uavs * len(first_cols)
            c["columns"] += result.n_vehicles
            for row in result.plans:
                for j in first_cols.values():
                    plan = row[j]
                    c["binding." + plan.binding.value] += 1
                    c["swap_and_depart"] += plan.swap_and_depart
        elif layer == "matching.msa_match":
            c["iterations"] += result.iterations
            c["matched_pairs"] += len(result.assignment)
            duals = result.duals
            gap = sum(duals.p) + sum(duals.q) - result.total_saving
            c["dual_gap"] = max(c["dual_gap"], abs(gap))
        elif layer == "scenario_io.load_scenario":
            c["load_bytes"] += os.path.getsize(args[0])
    return c


def layer_metrics(
    spans, pairs_per_op: dict[int, int], scale_per_op: dict[int, float]
) -> dict[str, float]:
    """Each layer's share of op time, the median per-op self time (ms) of
    the layers every workload runs, and the build's self time per planned
    pair (us). Times are scaled by each op's machine-speed scale.

    Layers that only some workloads run get no ms figure: it would read 0
    on every run of the others."""
    per_op = self_times(spans)
    durations = op_durations(spans)
    total_op = sum(durations.values())
    layers = {layer for _, _, layer in PATCH_POINTS} | {"cli.other"}
    out: dict[str, float] = {}
    for layer in sorted(layers):
        values = [per_op[op].get(layer, 0.0) for op in durations]
        if layer in TIMED_ON_EVERY_WORKLOAD:
            scaled = [v * scale_per_op[op] for v, op in zip(values, durations)]
            out[layer + ".ms"] = 1e3 * statistics.median(scaled)
        out[layer + ".share"] = sum(values) / total_op
    build = "matching.build_saving_matrix"
    pairs = sum(pairs_per_op[op] for op in durations)
    build_s = sum(per_op[op].get(build, 0.0) * scale_per_op[op] for op in durations)
    out[build + ".us_per_pair"] = 1e6 * build_s / pairs if pairs else 0.0
    return out

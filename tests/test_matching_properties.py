"""Differential property tests of the max-saving matcher.

``msa_match`` walks each vehicle once with its seat count. It is checked
against four independent references: the exhaustive ``brute_force_match``
on small instances (up to 6 UAVs x 6 vehicles of capacity up to 3),
scipy's ``linear_sum_assignment`` on the capacity-expanded weights up to
60 x 60, a networkx min-cost flow on the per-vehicle savings and seat
counts up to 30 UAVs x 10 vehicles of capacity up to 6, and the
element-by-element loop over expanded columns ``oracles.scalar_msa_match``.
The instances mix exact ties, weights a hair either side of ``tol``,
scales up to 1e6 and duplicated capacity columns. On every instance the
dual certificate must verify, the dual objective must equal the total
saving and the total must be the optimum.

Where every vehicle has one seat, ``msa_match`` must reproduce the scalar
loop bit for bit. Where a vehicle has more, the two walk the trees in a
different order, and on exact ties they may settle on different optima of
equal total, so only the certificate, the gap and the optimal total gate
those.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scalar_msa_match
from uavhitch import DualState, SavingMatrix, brute_force_match, msa_match, verify_duals

TOL = 1e-9
NEAR_TOL = [TOL - 1e-12, TOL, TOL + 1e-12]


@st.composite
def small_instances(draw):
    n_uavs = draw(st.integers(0, 6))
    caps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    levels = [0.0, *NEAR_TOL, 0.25 * scale, 0.5 * scale, scale]
    value = st.one_of(st.sampled_from(levels), st.floats(0.0, scale))
    row = st.lists(value, min_size=len(caps), max_size=len(caps))
    # Vehicle j fills min(caps[j], n_uavs) identical columns.
    return SavingMatrix(draw(st.lists(row, min_size=n_uavs, max_size=n_uavs)), caps, tol=TOL)


def random_savings(draw, rng, shape):
    kind = draw(st.sampled_from(["uniform", "ties", "near_tol", "mixed_scale"]))
    if kind == "uniform":
        base = rng.uniform(0.0, 1.0, shape)
    elif kind == "ties":
        base = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], shape)
    elif kind == "near_tol":
        base = rng.choice([0.0, *NEAR_TOL, 2e-9, 1e-6], shape)
    else:
        base = 10.0 ** rng.uniform(-3.0, 6.0, shape)
    base[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    return base


@st.composite
def large_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_uavs = draw(st.integers(1, 60))
    n_orig = draw(st.integers(1, 60))
    caps = rng.integers(1, 4, size=n_orig)
    # Keep the vehicles whose columns fit in 60.
    n_orig = int(np.searchsorted(np.minimum(caps, n_uavs).cumsum(), 60, side="right"))
    caps = caps[:n_orig].tolist()
    return SavingMatrix(random_savings(draw, rng, (n_uavs, n_orig)), caps, tol=TOL)


@st.composite
def fleet_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_uavs = draw(st.integers(0, 30))
    caps = rng.integers(1, 7, size=draw(st.integers(1, 10))).tolist()
    return SavingMatrix(random_savings(draw, rng, (n_uavs, len(caps))), caps, tol=TOL)


def flow_optimum(m) -> float:
    """The optimal total saving, from networkx's min-cost flow on each
    vehicle's savings and seat count: one unit from the source per UAV,
    through a UAV-vehicle edge above tol or straight to the sink (flying
    direct), and at most the vehicle's seats from it to the sink. Savings
    are scaled to integers exactly, so the flow's optimum is exact."""
    nx = pytest.importorskip("networkx")
    edges = [(i, j, Fraction(s)) for (i, j), s in np.ndenumerate(m.saving) if s > m.tol]
    # Every denominator is a power of two, so the largest is a multiple of all.
    scale = max((f.denominator for _, _, f in edges), default=1)
    g = nx.DiGraph()
    g.add_node("source", demand=-m.n_uavs)
    g.add_node("sink", demand=m.n_uavs)
    g.add_edge("source", "sink", capacity=m.n_uavs, weight=0)
    for i in range(m.n_uavs):
        g.add_edge("source", ("uav", i), capacity=1, weight=0)
    for j, seats in enumerate(m.seats):
        g.add_edge(("vehicle", j), "sink", capacity=seats, weight=0)
    for i, j, f in edges:
        g.add_edge(("uav", i), ("vehicle", j), capacity=1, weight=-int(f * scale))
    cost, _ = nx.network_simplex(g)
    return float(Fraction(-cost, scale))


def check_optimal(m, r, reference):
    scale = float(m.saving.max(initial=0.0))
    assert math.isclose(r.total_saving, reference, rel_tol=0.0, abs_tol=1e-9 * max(1.0, scale))
    assert verify_duals(m, r, r.duals)
    # Unmatched UAVs that never rooted a tree keep p_i = max_j w_ij <= tol,
    # which the certificate's complementary slackness allows.
    unmatched = m.n_uavs - len(r.matched_columns)
    gap = sum(r.duals.p) + sum(r.duals.q) - r.total_saving
    assert abs(gap) <= 1e-9 * max(1.0, scale) + unmatched * m.tol
    for i in r.matched_columns:
        # Loosening one matched edge by twice the slack must be caught.
        p = list(r.duals.p)
        p[i] -= 2 * m.tol
        assert not verify_duals(m, r, DualState(p=p, q=r.duals.q))
    if set(m.seats) <= {1}:
        key = (
            sorted(r.matched_columns.items()),
            r.iterations,
            r.duals.p,
            r.duals.q,
            r.total_saving,
        )
        assert repr(key) == repr(scalar_msa_match(m))


@settings(max_examples=150, deadline=None)
@given(small_instances())
def test_msa_equals_brute_force(m):
    check_optimal(m, msa_match(m), brute_force_match(m).total_saving)


@settings(max_examples=40, deadline=None)
@given(large_instances())
def test_msa_equals_scipy_assignment(m):
    optimize = pytest.importorskip("scipy.optimize")
    # Edges at or below tol are never matched; as zeros they add nothing.
    w = np.where(m.weights > m.tol, m.weights, 0.0)
    rows, cols = optimize.linear_sum_assignment(w, maximize=True)
    check_optimal(m, msa_match(m), float(w[rows, cols].sum()))


@settings(max_examples=60, deadline=None)
@given(fleet_instances())
def test_msa_equals_min_cost_flow(m):
    check_optimal(m, msa_match(m), flow_optimum(m))

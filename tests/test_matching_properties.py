"""Differential property tests of the max-saving matcher.

``msa_match`` is checked against three independent references: the
exhaustive ``brute_force_match`` on small instances (up to 6 UAVs x 6
vehicles of capacity up to 3), scipy's ``linear_sum_assignment`` on the
capacity-expanded weights up to 60 x 60, and the element-by-element loop
``oracles.scalar_msa_match``, which it must reproduce bit for bit. The
instances mix exact ties, weights a hair either side of ``tol``, scales up
to 1e6 and duplicated capacity columns. On every instance the dual
certificate must verify and the dual objective must equal the total
saving.
"""

import math

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


@st.composite
def large_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_uavs = draw(st.integers(1, 60))
    n_orig = draw(st.integers(1, 60))
    caps = rng.integers(1, 4, size=n_orig)
    # Keep the vehicles whose columns fit in 60.
    n_orig = int(np.searchsorted(np.minimum(caps, n_uavs).cumsum(), 60, side="right"))
    caps = caps[:n_orig].tolist()
    kind = draw(st.sampled_from(["uniform", "ties", "near_tol", "mixed_scale"]))
    shape = (n_uavs, n_orig)
    if kind == "uniform":
        base = rng.uniform(0.0, 1.0, shape)
    elif kind == "ties":
        base = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], shape)
    elif kind == "near_tol":
        base = rng.choice([0.0, *NEAR_TOL, 2e-9, 1e-6], shape)
    else:
        base = 10.0 ** rng.uniform(-3.0, 6.0, shape)
    base[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    return SavingMatrix(base, caps, tol=TOL)


def check_certificate(m, r):
    assert verify_duals(m, r, r.duals)
    # Unmatched UAVs that never rooted a tree keep p_i = max_j w_ij <= tol,
    # which the certificate's complementary slackness allows.
    unmatched = m.n_uavs - len(r.matched_columns)
    scale = max((max(row, default=0.0) for row in m.weights), default=0.0)
    gap = sum(r.duals.p) + sum(r.duals.q) - r.total_saving
    assert abs(gap) <= 1e-9 * max(1.0, scale) + unmatched * m.tol
    for i in r.matched_columns:
        # Loosening one matched edge by twice the slack must be caught.
        p = list(r.duals.p)
        p[i] -= 2 * m.tol
        assert not verify_duals(m, r, DualState(p=p, q=r.duals.q))


def check_bits(m, r):
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
    r = msa_match(m)
    scale = max((max(row, default=0.0) for row in m.weights), default=0.0)
    assert math.isclose(
        r.total_saving, brute_force_match(m).total_saving, rel_tol=0.0, abs_tol=1e-9 * max(1.0, scale)
    )
    check_certificate(m, r)
    check_bits(m, r)


@settings(max_examples=40, deadline=None)
@given(large_instances())
def test_msa_equals_scipy_assignment(m):
    optimize = pytest.importorskip("scipy.optimize")
    r = msa_match(m)
    w = np.array(m.weights).reshape(m.n_uavs, m.n_vehicles)
    # Edges at or below tol are never matched; as zeros they add nothing.
    w = np.where(w > m.tol, w, 0.0)
    rows, cols = optimize.linear_sum_assignment(w, maximize=True)
    reference = float(w[rows, cols].sum())
    assert math.isclose(
        r.total_saving, reference, rel_tol=0.0, abs_tol=1e-9 * max(1.0, float(w.max(initial=0.0)))
    )
    check_certificate(m, r)
    check_bits(m, r)

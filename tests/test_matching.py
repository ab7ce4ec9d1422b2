import math
import random

import pytest

from uavhitch import (
    BruteForceSizeError,
    PairGeometry,
    PlannerConfig,
    SavingMatrix,
    UavTask,
    VehicleOffer,
    brute_force_match,
    build_saving_matrix,
    greedy_match,
    msa_match,
    verify_duals,
)

CFG = PlannerConfig(omega=0.8)


def raw_matrix(weights, origins=None, tol=1e-9):
    n_rows = len(weights)
    n_cols = len(weights[0]) if weights else 0
    return SavingMatrix(
        n_uavs=n_rows,
        n_vehicles=n_cols,
        weights=[list(r) for r in weights],
        plans=[[None] * n_cols for _ in range(n_rows)],
        column_origin=origins if origins is not None else list(range(n_cols)),
        tol=tol,
    )


def random_matrix(rng, n_rows, n_cols, zero_frac=0.35, origins=None):
    weights = [
        [0.0 if rng.random() < zero_frac else round(rng.uniform(0.01, 1.0), 6) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    if origins is not None:
        # duplicated columns of one vehicle must carry identical weights
        for row in weights:
            seen = {}
            for j, orig in enumerate(origins):
                if orig in seen:
                    row[j] = row[seen[orig]]
                else:
                    seen[orig] = j
    return raw_matrix(weights, origins)


# ------------------------------------------------------------------- build


def test_build_single_ineligible_pair():
    m = build_saving_matrix(CFG, [UavTask(x=5, u=60)], [VehicleOffer(v=40)], [[PairGeometry(1.4)]])
    assert m.weights.tolist() == [[0.0]]
    assert m.plans[0][0].binding.value == "no_hitch"


def test_build_capacity_expands_columns():
    # capacity 3 for 2 UAVs: the third seat could never be filled
    tasks = [UavTask(x=5, u=60), UavTask(x=7, u=60)]
    offers = [VehicleOffer(v=40, gamma=0.3, capacity=3), VehicleOffer(v=40, capacity=1)]
    geoms = [[PairGeometry(0.2), PairGeometry(0.3)], [PairGeometry(0.4), PairGeometry(0.5)]]
    m = build_saving_matrix(CFG, tasks, offers, geoms)
    assert m.n_vehicles == 3
    assert m.column_origin == [0, 0, 1]
    for i in range(2):
        assert m.weights[i][0] == m.weights[i][1]


@pytest.mark.parametrize(
    "weights, n_vehicles, origins, message",
    [
        ([[math.nan, 1.0], [1.0, 0.5]], 2, [0, 1], "weights[0, 0] = nan"),
        ([[0.5, math.inf], [1.0, 0.5]], 2, [0, 1], "weights[0, 1] = inf"),
        ([[0.5, 1.0], [-0.2, -0.1]], 2, [0, 1], "weights[1, 0] = -0.2"),
        ([[0.5, 1.0], [1.0, 0.5]], 3, [0, 1, 2], "weights has shape (2, 2)"),
        ([[0.5, 1.0], [1.0]], 2, [0, 1], "weights:"),
        ([[0.5, 1.0], [1.0, 0.5]], 2, [0, 0, 1], "column_origin has 3 entries"),
    ],
    ids=["nan", "inf", "negative_row", "shape", "ragged", "column_origin"],
)
def test_malformed_saving_matrix_rejected(weights, n_vehicles, origins, message):
    with pytest.raises(ValueError) as info:
        SavingMatrix(
            n_uavs=2,
            n_vehicles=n_vehicles,
            weights=weights,
            plans=[[None] * n_vehicles for _ in range(2)],
            column_origin=origins,
        )
    assert message in str(info.value)


def test_build_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        build_saving_matrix(CFG, [UavTask(x=5, u=60)], [VehicleOffer(v=40)], [])
    with pytest.raises(ValueError):
        build_saving_matrix(
            CFG, [UavTask(x=5, u=60)], [VehicleOffer(v=40)], [[PairGeometry(0.1)] * 2]
        )


def test_build_weights_nonnegative_and_tied_to_plans():
    tasks = [UavTask(x=x, u=60) for x in (3.0, 9.0, 15.0)]
    offers = [VehicleOffer(v=40, gamma=0.3) for _ in range(3)]
    rng = random.Random(3)
    geoms = [[PairGeometry(rng.uniform(0, math.pi)) for _ in offers] for _ in tasks]
    m = build_saving_matrix(CFG, tasks, offers, geoms)
    for i in range(3):
        for j in range(3):
            assert m.weights[i][j] >= 0.0
            assert (m.weights[i][j] == 0.0) == (m.plans[i][j].binding.value == "no_hitch")


# ----------------------------------------------------------------- solvers


def test_single_pair_match():
    m = raw_matrix([[0.02]])
    r = msa_match(m)
    assert r.total_saving == pytest.approx(0.02)
    assert r.assignment == {0: 0}
    assert verify_duals(m, r, r.duals)
    g = greedy_match(m)
    assert g.assignment == r.assignment and g.total_saving == r.total_saving


def test_diagonal_dominant_identity_assignment():
    m = raw_matrix([[9, 1, 1], [1, 9, 1], [1, 1, 9]])
    r = msa_match(m)
    assert r.assignment == {0: 0, 1: 1, 2: 2}
    assert r.total_saving == pytest.approx(27.0)


def test_greedy_trap_instance():
    m = raw_matrix([[10.0, 9.0], [9.0, 0.0]])
    assert greedy_match(m).total_saving == pytest.approx(10.0)
    assert msa_match(m).total_saving == pytest.approx(18.0)
    assert brute_force_match(m).total_saving == pytest.approx(18.0)


def test_empty_matrix():
    m = raw_matrix([])
    for solver in (msa_match, greedy_match, brute_force_match):
        r = solver(m)
        assert r.assignment == {}
        assert r.total_saving == 0.0


def test_brute_simple_row():
    m = raw_matrix([[0.1, 0.3]])
    r = brute_force_match(m)
    assert r.assignment == {0: 1}
    assert r.total_saving == pytest.approx(0.3)


def test_brute_size_guard():
    m = random_matrix(random.Random(0), 9, 3)
    with pytest.raises(BruteForceSizeError):
        brute_force_match(m)
    m = random_matrix(random.Random(0), 3, 9)
    with pytest.raises(BruteForceSizeError):
        brute_force_match(m)


def test_msa_equals_brute_on_random_instances():
    rng = random.Random(42)
    for _ in range(250):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        opt = brute_force_match(m).total_saving
        r = msa_match(m)
        assert r.total_saving == pytest.approx(opt, abs=1e-9)
        assert verify_duals(m, r, r.duals)
        assert greedy_match(m).total_saving <= opt + 1e-9
        assert r.iterations <= max(1, m.n_uavs)


def test_capacity_expansion_against_brute():
    rng = random.Random(43)
    for _ in range(100):
        n_orig = rng.randint(1, 4)
        caps = [rng.randint(1, 3) for _ in range(n_orig)]
        origins = [j for j, z in enumerate(caps) for _ in range(z)]
        m = random_matrix(rng, rng.randint(1, 5), len(origins), origins=origins)
        r = msa_match(m)
        assert r.total_saving == pytest.approx(brute_force_match(m).total_saving, abs=1e-9)
        assert verify_duals(m, r, r.duals)
        # per-vehicle load never exceeds its capacity
        for orig, z in enumerate(caps):
            assert sum(1 for v in r.assignment.values() if v == orig) <= z


def test_unit_capacity_expansion_is_identity():
    rng = random.Random(44)
    for _ in range(50):
        m1 = random_matrix(rng, 4, 4)
        m2 = raw_matrix(m1.weights.tolist(), origins=list(range(4)))
        assert msa_match(m1).total_saving == pytest.approx(
            msa_match(m2).total_saving, abs=1e-12
        )


def test_adding_column_never_hurts():
    rng = random.Random(45)
    for _ in range(80):
        m = random_matrix(rng, 4, 3)
        base = msa_match(m).total_saving
        extra = [[rng.uniform(0, 1)] for _ in range(4)]
        wider = raw_matrix(
            [list(row) + extra[i] for i, row in enumerate(m.weights)], origins=list(range(4))
        )
        assert msa_match(wider).total_saving >= base - 1e-12


def test_removing_row_never_helps():
    rng = random.Random(46)
    for _ in range(80):
        m = random_matrix(rng, 5, 4)
        full = msa_match(m).total_saving
        sub = raw_matrix(m.weights[1:].tolist(), origins=list(m.column_origin))
        assert msa_match(sub).total_saving <= full + 1e-12


def test_zero_weight_rows_fly_direct():
    m = raw_matrix([[0.0, 0.0], [0.5, 0.1]])
    r = msa_match(m)
    assert 0 not in r.assignment
    assert r.assignment[1] == 0
    assert verify_duals(m, r, r.duals)


def test_certificate_rejects_perturbed_duals():
    m = raw_matrix([[0.4, 0.2], [0.3, 0.6]])
    r = msa_match(m)
    assert verify_duals(m, r, r.duals)
    # breaking feasibility on a binding edge must be caught
    bad_q = list(r.duals.q)
    i, j = next(iter(r.matched_columns.items()))
    bad_q[j] -= 2 * m.tol
    from uavhitch import DualState

    bad = DualState(p=list(r.duals.p), q=bad_q)
    assert not verify_duals(m, r, bad)


def test_no_matched_pair_below_tolerance():
    m = raw_matrix([[1e-12, 0.4]])
    r = msa_match(m)
    assert r.assignment == {0: 1}
    for i, j, _ in r.per_pair:
        assert m.weights[i][m.column_origin.index(j)] > m.tol

import math
import random

import numpy as np
import pytest

from oracles import matched_columns, scalar_msa_match
from uavhitch import (
    BruteForceSizeError,
    DualState,
    GeneratorParams,
    MatchResult,
    PairGeometry,
    PlannerConfig,
    SavingMatrix,
    UavTask,
    VehicleOffer,
    brute_force_match,
    build_saving_matrix,
    generate_scenario,
    greedy_match,
    msa_match,
    verify_duals,
)

CFG = PlannerConfig(omega=0.8)


def raw_matrix(saving, capacity=None, tol=1e-9):
    n_cols = len(saving[0]) if len(saving) else 0
    return SavingMatrix(saving, capacity if capacity is not None else [1] * n_cols, tol=tol)


def random_matrix(rng, n_rows, n_vehicles, zero_frac=0.35, capacity=None):
    saving = [
        [0.0 if rng.random() < zero_frac else round(rng.uniform(0.01, 1.0), 6) for _ in range(n_vehicles)]
        for _ in range(n_rows)
    ]
    return raw_matrix(saving, capacity)


# ------------------------------------------------------------------- build


def test_build_single_ineligible_pair():
    m = build_saving_matrix(CFG, [UavTask(x=5, u=60)], [VehicleOffer(v=40)], [[1.4]])
    assert m.weights.tolist() == [[0.0]]
    assert m.plans[0][0].binding.value == "no_hitch"


def test_build_capacity_expands_columns():
    # capacity 3 for 2 UAVs: the third seat could never be filled
    tasks = [UavTask(x=5, u=60), UavTask(x=7, u=60)]
    offers = [VehicleOffer(v=40, gamma=0.3, capacity=3), VehicleOffer(v=40, capacity=1)]
    m = build_saving_matrix(CFG, tasks, offers, [[0.2, 0.3], [0.4, 0.5]])
    assert m.n_vehicles == 3
    assert m.column_origin == [0, 0, 1]
    for i in range(2):
        assert m.weights[i][0] == m.weights[i][1]


@pytest.mark.parametrize(
    "saving, message",
    [
        ([[math.nan, 1.0], [1.0, 0.5]], "saving[0, 0] = nan"),
        ([[0.5, math.inf], [1.0, 0.5]], "saving[0, 1] = inf"),
        ([[0.5, 1.0], [-0.2, -0.1]], "saving[1, 0] = -0.2"),
        ([0.5, 1.0], "saving has shape (2,)"),
        ([[0.5, 1.0], [1.0]], "saving:"),
    ],
    ids=["nan", "inf", "negative_row", "shape", "ragged"],
)
def test_malformed_saving_matrix_rejected(saving, message):
    with pytest.raises(ValueError) as info:
        SavingMatrix(saving, [1, 1])
    assert message in str(info.value)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_saving_matrix_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # The optimum is 1.5. A NaN or infinite tol used to give an empty
    # matching that the certificate passed, and tol = -1 the optimum that it
    # failed.
    with pytest.raises(ValueError, match=rf"tol must be finite and > 0, got {tol!r}"):
        SavingMatrix([[0.0, 1.0], [0.5, 0.0]], [1, 1], tol=tol)


def test_saving_matrix_derives_expanded_view():
    tasks = [UavTask(x=5, u=60), UavTask(x=7, u=60), UavTask(x=9, u=60)]
    theta = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    offers = [VehicleOffer(v=40, gamma=0.3, capacity=c) for c in (2, 1, 5)]
    m = build_saving_matrix(CFG, tasks, offers, theta)
    assert m.capacity == [2, 1, 5]
    assert m.seats == [2, 1, 3]
    assert m.column_origin == [0, 0, 1, 2, 2, 2]  # min(capacity, 3) columns each
    assert (m.n_uavs, m.n_vehicles) == (3, 6)
    assert m.saving.shape == (3, 3)
    assert (m.weights == m.saving[:, m.column_origin]).all()

    single = build_saving_matrix(CFG, tasks, [VehicleOffer(v=40, gamma=0.3)] * 3, theta)
    assert single.weights is single.saving
    assert single.column_origin == [0, 1, 2]

    numpy_int = SavingMatrix([[0.5, 1.0], [1.0, 0.5]], [np.int64(2), 1])
    assert numpy_int.capacity == [2, 1] and type(numpy_int.capacity[0]) is int
    assert numpy_int.seats == [2, 1] and numpy_int.column_origin == [0, 0, 1]

    for capacity, message in [
        ([1, 0], "capacity[1] must be an integer >= 1, got 0"),
        ([1, 1.5], "capacity[1] must be an integer >= 1, got 1.5"),
        ([np.bool_(True), 1], "capacity[0] must be an integer >= 1, got np.True_"),
        ([2.0, 1], "capacity[0] must be an integer >= 1, got 2.0"),
        ([1, -1], "capacity[1] must be an integer >= 1, got -1"),
        ([1, "1"], "capacity[1] must be an integer >= 1, got '1'"),
        ([-1, "1"], "capacity[0] must be an integer >= 1, got -1"),  # the first bad entry
        (["1", -1], "capacity[0] must be an integer >= 1, got '1'"),
        ([1, 1, 1], "saving has shape (2, 2), expected (rows, len(capacity)) = (2, 3)"),
    ]:
        with pytest.raises(ValueError) as info:
            SavingMatrix([[0.5, 1.0], [1.0, 0.5]], capacity)
        assert message in str(info.value)

    # No UAV leaves no column, and no seat for the exhaustive search.
    empty = SavingMatrix([], [1] * 9)
    assert (empty.n_uavs, empty.n_vehicles, empty.saving.shape) == (0, 0, (0, 9))
    assert empty.seats == [0] * 9
    for solver in (msa_match, greedy_match, brute_force_match):
        r = solver(empty)
        assert r.assignment == {} and r.total_saving == 0.0


def test_saving_matrix_rejects_a_bool_capacity():
    # A scenario file with "capacity": true exits 2; the matrix agrees.
    for flag in (True, False):
        message = rf"capacity\[0\] must be an integer >= 1, got {flag}"
        with pytest.raises(ValueError, match=message):
            SavingMatrix([[1.0]], [flag])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        build_saving_matrix(CFG, [UavTask(x=5, u=60)], [VehicleOffer(v=40)], [])
    with pytest.raises(ValueError):
        build_saving_matrix(
            CFG, [UavTask(x=5, u=60)], [VehicleOffer(v=40)], [[0.1] * 2]
        )


@pytest.mark.parametrize(
    "theta, message",
    [
        ([[0.1, 0.2]], "theta has shape (1, 2), expected (n_uavs, n_vehicles) = (2, 2)"),
        ([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], "theta has shape (2, 3)"),
        ([[0.1, 0.2], [0.3]], "theta:"),
        ([[0.1, 0.2], [0.3, math.nan]], "theta[1,1]: theta must be in [0, pi], got nan"),
        ([[0.1, -0.1], [0.3, 0.4]], "theta[0,1]: theta must be in [0, pi], got -0.1"),
        ([[0.1, 0.2], [3.2, math.inf]], "theta[1,0]: theta must be in [0, pi], got 3.2"),
        ([[0.1, 0.2], [PairGeometry(0.3), 0.4]], "theta:"),
    ],
    ids=["rows", "columns", "ragged", "nan", "negative", "above_pi", "objects"],
)
def test_build_rejects_bad_theta(theta, message):
    tasks = [UavTask(x=5, u=60), UavTask(x=7, u=60)]
    offers = [VehicleOffer(v=40, gamma=0.3), VehicleOffer(v=30)]
    with pytest.raises(ValueError) as info:
        build_saving_matrix(CFG, tasks, offers, theta)
    assert message in str(info.value)


def test_build_weights_nonnegative_and_tied_to_plans():
    tasks = [UavTask(x=x, u=60) for x in (3.0, 9.0, 15.0)]
    offers = [VehicleOffer(v=40, gamma=0.3) for _ in range(3)]
    rng = random.Random(3)
    theta = [[rng.uniform(0, math.pi) for _ in offers] for _ in tasks]
    m = build_saving_matrix(CFG, tasks, offers, theta)
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
        m = random_matrix(rng, rng.randint(1, 5), n_orig, capacity=caps)
        r = msa_match(m)
        assert r.total_saving == pytest.approx(brute_force_match(m).total_saving, abs=1e-9)
        assert verify_duals(m, r, r.duals)
        columns = matched_columns(m, r)
        for orig, z in enumerate(caps):
            riders = [i for i, v in r.assignment.items() if v == orig]  # in UAV order
            assert len(riders) <= z
            # The riders take the vehicle's columns lowest first, and its q
            # repeats over them; it is 0 while a seat is free.
            cols = [c for c, v in enumerate(m.column_origin) if v == orig]
            assert [columns[i] for i in riders] == cols[: len(riders)]
            assert {r.duals.q[c] for c in cols} == {r.duals.q[cols[0]]}
            if len(riders) < m.seats[orig]:
                assert r.duals.q[cols[0]] == 0.0


@pytest.mark.parametrize(
    "saving, capacity, expected",
    [
        # UAVs 0 and 1 ride vehicle 0 and tie on vehicle 1: the earlier moves.
        ([[1.5, 1.5], [1.5, 1.5], [0.5, 0.0]], [2, 1], {0: 1, 1: 0, 2: 0}),
        # Vehicle 1 seats UAV 2 before UAV 0; they join UAV 4's tree as 0, 2.
        (
            [[1.5, 1.5], [0.5, 0.5], [1.5, 1.5], [1.0, 0.5], [0.0, 1.0]],
            [1, 2],
            {0: 0, 2: 1, 4: 1},
        ),
    ],
    ids=["earliest_rider_keeps_a_tie", "riders_join_in_uav_order"],
)
def test_full_vehicle_riders_join_in_uav_order(saving, capacity, expected):
    m = raw_matrix(saving, capacity)
    assert msa_match(m).assignment == expected
    # The expanded-column reference settles on the same optimum.
    assert {i: m.column_origin[j] for i, j in scalar_msa_match(m)[0]} == expected


def test_unit_capacity_expansion_is_identity():
    rng = random.Random(44)
    for _ in range(50):
        m = random_matrix(rng, 4, 4)
        assert m.weights is m.saving and m.column_origin == list(range(4))


def test_adding_column_never_hurts():
    rng = random.Random(45)
    for _ in range(80):
        m = random_matrix(rng, 4, 3)
        base = msa_match(m).total_saving
        extra = [[rng.uniform(0, 1)] for _ in range(4)]
        wider = raw_matrix(
            [list(row) + extra[i] for i, row in enumerate(m.saving)], capacity=[1] * 4
        )
        assert msa_match(wider).total_saving >= base - 1e-12


def test_removing_row_never_helps():
    rng = random.Random(46)
    for _ in range(80):
        m = random_matrix(rng, 5, 4)
        full = msa_match(m).total_saving
        sub = raw_matrix(m.saving[1:].tolist(), m.capacity)
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
    i, j = next(iter(matched_columns(m, r).items()))
    bad_q[j] -= 2 * m.tol
    bad = DualState(p=list(r.duals.p), q=bad_q)
    assert not verify_duals(m, r, bad)
    # every comparison with NaN is false, so NaN potentials pass no check
    nan = math.nan
    assert not verify_duals(m, r, DualState([nan, nan], [nan, nan]))
    assert not verify_duals(m, r, DualState([0.5, 0.4], [nan, 0.0]))

    # Vehicle 0 seats UAVs 0 and 1 on its two columns; unmatched UAV 2
    # (p = 0) needs q >= 0.3 on both. Lowering the second column's q, and
    # raising its rider's p to keep the edge tight, breaks feasibility only.
    m = raw_matrix([[0.5, 0.1], [0.4, 0.1], [0.3, 0.0]], capacity=[2, 1])
    r = msa_match(m)
    assert matched_columns(m, r) == {0: 0, 1: 1}
    assert verify_duals(m, r, r.duals)
    p, q = list(r.duals.p), list(r.duals.q)
    p[1] += 2 * m.tol
    q[1] -= 2 * m.tol
    assert not verify_duals(m, r, DualState(p, q))


def test_certificate_of_a_matrix_without_uavs_is_empty():
    # No UAV leaves every vehicle without a seat, hence without a potential.
    m = raw_matrix([], capacity=[1, 2, 3])
    r = msa_match(m)
    assert r.duals == DualState([], [])
    assert verify_duals(m, r, r.duals)
    assert not verify_duals(m, r, DualState([], [0.0]))


def test_certificate_needs_q_zero_on_a_vehicle_with_a_free_seat():
    # Vehicle 0 seats two and carries UAV 0 only; UAV 1 gains nothing.
    m = raw_matrix([[1.0], [0.0]], capacity=[2])
    r = msa_match(m)
    assert r.assignment == {0: 0}
    assert r.duals == DualState([1.0, 0.0], [0.0, 0.0])
    assert verify_duals(m, r, r.duals)
    # q = 0.5 on the vehicle, its free column included, with the matched
    # edge kept tight and every edge feasible: only the free seat rejects it.
    assert not verify_duals(m, r, DualState([0.5, 0.0], [0.5, 0.5]))
    # The vehicle's potential is its lowest q, here 0: a higher q on the
    # free column alone leaves a certificate.
    assert verify_duals(m, r, DualState([1.0, 0.0], [0.0, 0.5]))


def test_certificate_rejects_more_riders_than_seats():
    # Both UAVs on the one-seat vehicle 0 would total 2.0, above the
    # optimum 1.0, with potentials that pass every dual check.
    m = raw_matrix([[1.0, 0.0], [1.0, 0.0]])
    over = MatchResult({0: 0, 1: 0}, 2.0)
    assert not verify_duals(m, over, DualState([1.0, 1.0], [0.0, 0.0]))
    r = msa_match(m)
    assert verify_duals(m, r, r.duals)


def test_certificate_reads_each_vehicle_at_its_lowest_q():
    # Vehicle 0 seats UAVs 0 and 1; unmatched UAV 2 (p = 0) needs Q_0 >= 0.5.
    m = raw_matrix([[1.0, 0.0], [0.9, 0.0], [0.5, 0.0]], capacity=[2, 1])
    r = msa_match(m)
    assert r.assignment == {0: 0, 1: 0}
    assert r.duals == DualState([0.5, 0.4, 0.0], [0.5, 0.5, 0.0])
    assert verify_duals(m, r, r.duals)
    # Q_0 = min(0.5, 0.4): the matched edges are tight at 0.4, and UAV 2's
    # edge is infeasible there.
    assert not verify_duals(m, r, DualState([0.6, 0.5, 0.0], [0.5, 0.4, 0.0]))
    # Q_0 = min(0.6, 0.5) = 0.5 certifies the optimum, whatever the higher
    # column reads.
    assert verify_duals(m, r, DualState([0.5, 0.4, 0.0], [0.6, 0.5, 0.0]))


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(n_uavs=20, n_vehicles=40),
        GeneratorParams(n_uavs=40, n_vehicles=4, capacity=10, v_range=(20.0, 70.0)),
    ],
    ids=["20x40", "capacity_10"],
)
def test_solve_path_derives_no_expanded_view(params):
    s = generate_scenario(params, 7)
    m = build_saving_matrix(s.config, s.tasks, s.offers, s.geoms)
    r = msa_match(m)
    assert r.assignment and verify_duals(m, r, r.duals)
    assert greedy_match(m).assignment
    derived = {"column_origin", "n_vehicles", "weights", "plans"} & set(vars(m))
    assert not derived, f"the solve path derived {sorted(derived)}"


def test_no_matched_pair_below_tolerance():
    m = raw_matrix([[1e-12, 0.4]])
    r = msa_match(m)
    assert r.assignment == {0: 1}
    for i, c in matched_columns(m, r).items():
        assert m.column_origin[c] == r.assignment[i]
        assert m.weights[i][c] > m.tol

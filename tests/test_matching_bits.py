"""The max-saving matcher's output pinned by sha256, bit for bit.

Each digest hashes the repr of the matched columns, the iteration count,
both dual potential vectors and the total saving, so any change to the
order or kind of floating-point operations shows here. The matched columns
are the capacity-expanded key that ``oracles.matched_columns`` builds from
the assignment, a vehicle's riders taking its columns lowest first, in UAV
order. The digests were taken from the scalar loop over Python lists and
expanded capacity columns that ``oracles.scalar_msa_match`` keeps. Where
every vehicle has one seat, the digest pins ``msa_match`` itself. Where a
vehicle has more, it pins the reference: ``msa_match`` walks each vehicle
once with its seat count and may seat a rider on another of the vehicle's
columns, so on every instance it must equal the reference's assignment,
iterations, potentials and total saving instead. The instances cover a
capacity-expanded build, a battery-limited mixed fleet with deadlines and
swap vehicles, and raw matrices with exact ties, weights a hair either
side of ``tol`` and duplicated capacity columns.

Beyond the pins, ``msa_match`` must equal the reference bit for bit on
battery-limited 200 x 200 fleets with deadlines and swap vehicles, whose
long trees take many steps at eps = 0, on one small matrix per exit of a
tree's first step, and on small matrices whose augmenting paths read the
step log where the last improvement, a tie or a full vehicle's riders
decide which row reached a vehicle. Two more digests pin ``msa_match``
itself: on 3,000 small random matrices with exact ties and capacities 1-3,
and on 500 with 10-40 UAVs on 2-6 vehicles of capacity 1-10, where full
vehicles join trees with many riders at once.
"""

import collections
import hashlib
import math
import random

import numpy as np
import pytest

from oracles import matched_columns, scalar_msa_match
from uavhitch import (
    GeneratorParams,
    PlannerConfig,
    SavingMatrix,
    UavTask,
    VehicleOffer,
    build_saving_matrix,
    generate_scenario,
    msa_match,
    verify_duals,
)


def capacity_build():
    s = generate_scenario(GeneratorParams(n_uavs=60, n_vehicles=6, capacity=5), seed=31)
    return build_saving_matrix(s.config, s.tasks, s.offers, s.geoms)


def limited_mixed_build():
    rng = random.Random(20211018)
    tasks = []
    for _ in range(40):
        x = rng.uniform(1.0, 20.0)
        capacity = rng.uniform(0.05, 0.5)
        tasks.append(
            UavTask(
                x=x,
                u=60.0,
                deadline=1.3 * x / 60.0,
                battery_capacity=capacity,
                battery_level=capacity * rng.random(),
            )
        )
    offers = [
        VehicleOffer(
            v=rng.uniform(20.0, 60.0),
            gamma=math.inf if j % 7 == 0 else rng.uniform(0.0, 1.5),
            capacity=1 + j % 2,
        )
        for j in range(30)
    ]
    theta = [[rng.uniform(0.0, math.pi) for _ in offers] for _ in tasks]
    return build_saving_matrix(PlannerConfig(), tasks, offers, theta, limited=True)


def tied_raw():
    # Few distinct levels, so many slacks and potentials tie exactly.
    rng = random.Random(7)
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    return SavingMatrix([[rng.choice(levels) for _ in range(12)] for _ in range(15)], [1] * 12)


def near_tol_raw():
    # Weights within 1e-12 of tol on both sides, among ordinary ones; the
    # first rows have no edge above tol, so their UAVs are never roots.
    tol = 1e-9
    rng = random.Random(8)
    below = [tol - 1e-12, tol, 2e-12, 0.0]
    choices = below + [tol + 1e-12]
    weights = [[rng.choice(below) for _ in range(10)] for _ in range(3)]
    weights += [
        [rng.choice(choices) if rng.random() < 0.6 else rng.uniform(0.0, 1e-6) for _ in range(10)]
        for _ in range(12)
    ]
    return SavingMatrix(weights, [1] * 10, tol=tol)


def duplicated_raw():
    rng = random.Random(9)
    caps = [3, 1, 2, 4, 1]
    saving = [
        [0.0 if rng.random() < 0.3 else rng.uniform(0.0, 50.0) for _ in caps] for _ in range(14)
    ]
    return SavingMatrix(saving, caps)


INSTANCES = {
    "capacity_build": (
        capacity_build,
        "cf853ea1dc6fe444a1d11e93fefca5d84ceee7df24d627e0323ef622bc165435",
    ),
    "limited_mixed_build": (
        limited_mixed_build,
        "bbcecadfb1629cc0c1682baaacb5cc05f82677cb3b26aa529209b95bf7321b9a",
    ),
    "tied_raw": (
        tied_raw,
        "8ca4d09e888934b28175d206c57ef31c2aec280ba3096df58a2829ebbb6ddb4e",
    ),
    "near_tol_raw": (
        near_tol_raw,
        "822fd21e7eacb3fbcb4763e052966a83517008f554ec81dcb56dea75eb24c91e",
    ),
    "duplicated_raw": (
        duplicated_raw,
        "088dfd4106e1680e5c74d583a9099c6f8698474345329f4c7b26fdef26f19773",
    ),
}


def digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_msa_match_bits_pinned(name):
    make, expected = INSTANCES[name]
    m = make()
    r = msa_match(m)
    assert verify_duals(m, r, r.duals)
    reference = scalar_msa_match(m)
    key = (
        sorted(matched_columns(m, r).items()),
        r.iterations,
        r.duals.p,
        r.duals.q,
        r.total_saving,
    )
    assert digest(key if set(m.seats) <= {1} else reference) == expected
    matched, iterations, p, q, total = reference
    assert r.assignment == {i: m.column_origin[j] for i, j in matched}
    assert repr(key[1:]) == repr((iterations, p, q, total))



# One small matrix per exit of a tree's first step, the root's slacks and
# their arg-min, which ``msa_match`` takes before any tree state is set up:
# (saving, capacity, tol, the last root's expected assignment, p and q).
FIRST_STEP = {
    # The root's best vehicle is free and tight: it is seated at eps = 0.
    "free_at_eps_0": ([[0.5, 0.3]], [1, 1], 1e-9, {0: 0}, [0.5], [0.0, 0.0]),
    # The arg-max vehicle 0 is full with q = 0.4 after root 1, so root 2's
    # least slack is on the free vehicle 2, at eps = 0.9 - 0.8 > 0.
    "free_at_eps_above_0": (
        [[1.0, 0.0, 0.0], [1.0, 0.6, 0.0], [0.9, 0.0, 0.8]], [1, 1, 1], 1e-9,
        {0: 0, 1: 1, 2: 2}, [0.6, 0.6, 0.9 - ((0.0 + 0.9) - 0.8)], [0.4, 0.0, 0.0],
    ),
    # Root 2's slack on vehicle 2 rounds to exactly p = 1e5: the vehicle
    # wins the tie and the root is seated at p = 0. (The edge is then tight
    # only to 5e-12, above this tol, so no certificate is checked here.)
    "tie_with_p": (
        [[3e5, 0.0, 0.0], [3e5, 1e5, 0.0], [1e5, 0.0, 5e-12]], [1, 1, 1], 1e-12,
        {0: 0, 1: 1, 2: 2}, [1e5, 1e5, 0.0], [2e5, 0.0, 0.0],
    ),
    # Vehicle 0 has q = 2 > p = 1 of root 2, whose other edge is zero: the
    # root drops out at step one.
    "drop_out": (
        [[3.0, 0.0], [3.0, 1.0], [1.0, 0.0]], [1, 1], 1e-9,
        {0: 0, 1: 1}, [1.0, 1.0, 0.0], [2.0, 0.0],
    ),
    # Root 1's first step reaches vehicle 0, full, and the tree grows.
    "full_vehicle": (
        [[1.0, 0.5], [1.0, 0.2]], [1, 1], 1e-9, {0: 1, 1: 0}, [0.5, 0.5], [0.5, 0.0],
    ),
}


@pytest.mark.parametrize("name", FIRST_STEP)
def test_msa_match_first_step_exits_equal_reference(name):
    saving, capacity, tol, assignment, p, q = FIRST_STEP[name]
    m = SavingMatrix(saving, capacity, tol=tol)
    r = msa_match(m)
    matched, iterations, ref_p, ref_q, total = scalar_msa_match(m)
    assert r.assignment == {i: m.column_origin[j] for i, j in matched} == assignment
    assert repr((r.iterations, r.duals.p, r.duals.q, r.total_saving)) == repr(
        (iterations, ref_p, ref_q, total)
    )
    assert (r.duals.p, r.duals.q) == (p, q)


# Small matrices whose augmenting path reads the step log, which records
# per tree step the vehicles whose slack it lowered: (saving, capacity,
# assignment, p, q). Rows 0-2 (0-1 where vehicle 0 seats two) are seated at
# their first step; the last row roots the tree that is checked. The
# comments trace the tree; with other reaching rows the assignment differs.
STEP_LOG = {
    # Root 2 reaches vehicle 0, full; its rider 0 lowers vehicle 1's slack
    # from 0.5 to 0.25, and the path crosses vehicle 1 after rider 1 reaches
    # the free vehicle 2: the last improvement wins, so row 0 takes
    # vehicle 1 and the root vehicle 0.
    "later_row_improves": (
        [[1.0, 0.75, 0.0], [0.0, 1.0, 0.5], [1.0, 0.5, 0.0]], [1, 1, 1],
        {0: 1, 1: 2, 2: 0}, [0.25, 0.5, 0.25], [0.75, 0.5, 0.0],
    ),
    # As above, but rider 0's slack on vehicle 1 ties the root's 0.5: the
    # root keeps vehicle 1, so it takes that seat and row 0 stays.
    "later_row_ties": (
        [[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [1.0, 0.5, 0.0]], [1, 1, 1],
        {0: 0, 1: 2, 2: 1}, [0.0, 0.5, 0.0], [1.0, 0.5, 0.0],
    ),
    # Vehicle 0 seats rows 0 and 1; root 2 reaches it, full, and both
    # riders join in one step with equal slack 0.5 on vehicle 1: the first
    # rider, row 0, moves there.
    "riders_tie": (
        [[1.0, 0.5], [1.0, 0.5], [1.0, 0.25]], [2, 1],
        {0: 1, 1: 0, 2: 0}, [0.5, 0.5, 0.5], [0.5, 0.5, 0.0],
    ),
    # Root 3 reaches vehicle 0, full with rows 0 and 1, whose step lowers
    # vehicle 1's slack to row 1's 0.5 (row 0's is 0.75); vehicle 1's rider,
    # row 2, then runs out of potential and drops out. The path runs back
    # through that full-vehicle step: row 1 takes vehicle 1, the root
    # vehicle 0.
    "drop_out_through_full": (
        [[1.0, 0.25], [1.0, 0.5], [0.0, 0.25], [1.0, 0.0]], [2, 1],
        {0: 0, 1: 1, 3: 0}, [0.25, 0.25, 0.0, 0.25], [0.75, 0.75, 0.25],
    ),
}


@pytest.mark.parametrize("name", STEP_LOG)
def test_msa_match_step_log_reaching_rows_equal_reference(name):
    saving, capacity, assignment, p, q = STEP_LOG[name]
    m = SavingMatrix(saving, capacity)
    r = msa_match(m)
    matched, iterations, ref_p, ref_q, total = scalar_msa_match(m)
    assert r.assignment == {i: m.column_origin[j] for i, j in matched} == assignment
    assert repr((r.iterations, r.duals.p, r.duals.q, r.total_saving)) == repr(
        (iterations, ref_p, ref_q, total)
    )
    assert (r.duals.p, r.duals.q) == (p, q)
    assert verify_duals(m, r, r.duals)


# The first-choice exit: a root whose lowest-index arg-max vehicle has a
# free seat is seated there at eps = 0 with no slack scan; any other root
# takes the first step above. (saving, capacity, tol, assignment, p, q.)
FIRST_CHOICE = {
    # Vehicles 1 and 2 tie for the row max: the lowest index wins.
    "tie_for_the_max": ([[0.3, 0.7, 0.7]], [1, 1, 1], 1e-9, {0: 1}, [0.7], [0.0, 0.0, 0.0]),
    # Root 1's first choice, vehicle 0, is full: the first step scans the
    # slacks, reaches vehicle 0 at eps = 0, and its rider leaves root 1 on
    # vehicle 1 at eps = 1.0 - 0.8.
    "full_first_choice": (
        [[1.0, 0.5], [1.0, 0.8]], [1, 1], 1e-9, {0: 0, 1: 1}, [0.8, 0.8], [1.0 - 0.8, 0.0],
    ),
    # Row 0's max is tol itself: the row is no root and flies direct.
    "max_at_tol": ([[1e-9, 0.0], [0.5, 0.2]], [1, 1], 1e-9, {1: 0}, [1e-9, 0.5], [0.0, 0.0]),
    # No vehicle: every row's max is 0, and no row has a first choice.
    "no_vehicles": ([[], []], [], 1e-9, {}, [0.0, 0.0], []),
}


@pytest.mark.parametrize("name", FIRST_CHOICE)
def test_msa_match_first_choice_exit_equals_reference(name):
    saving, capacity, tol, assignment, p, q = FIRST_CHOICE[name]
    m = SavingMatrix(saving, capacity, tol=tol)
    r = msa_match(m)
    matched, iterations, ref_p, ref_q, total = scalar_msa_match(m)
    assert r.assignment == {i: m.column_origin[j] for i, j in matched} == assignment
    assert repr((r.iterations, r.duals.p, r.duals.q, r.total_saving)) == repr(
        (iterations, ref_p, ref_q, total)
    )
    assert (r.duals.p, r.duals.q) == (p, q)
    assert verify_duals(m, r, r.duals)


def test_msa_match_rebuilds_a_full_vehicle_block_after_a_path_flip():
    # Vehicle 0 seats two. Rows 0 and 1 take it at their first choice.
    # Root 2 reaches it full, so rows 0 and 1 join its tree together; row 0
    # moves to vehicle 1 and the root takes its seat, so vehicle 0's riders
    # are rows 1 and 2. Root 3 reaches vehicle 0 full again: the riders that
    # join are rows 1 and 2, and slacks from rows 0 and 1, the first tree's
    # riders, would give other potentials.
    m = SavingMatrix(
        [[1.0, 0.5, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.3]], [2, 1, 1]
    )
    r = msa_match(m)
    matched, iterations, p, q, total = scalar_msa_match(m)
    assert r.assignment == {i: m.column_origin[j] for i, j in matched} == {0: 1, 1: 0, 2: 0, 3: 2}
    assert repr((r.iterations, r.duals.p, r.duals.q, r.total_saving)) == repr(
        (iterations, p, q, total)
    )
    assert r.duals.p == [0.5, 0.30000000000000004, 0.30000000000000004, 0.30000000000000004]
    assert r.duals.q == [0.7, 0.7, 0.0, 0.0]
    assert verify_duals(m, r, r.duals)


def test_msa_match_first_step_takes_a_free_seat_of_a_shared_vehicle():
    # Vehicle 0 seats two: root 1 joins root 0 there at its first step. The
    # reference seats it on the vehicle's second column; the totals, the
    # iteration count and the certificate agree.
    m = SavingMatrix([[1.0, 0.5], [1.0, 0.2]], [2, 1])
    r = msa_match(m)
    matched, iterations, _, _, total = scalar_msa_match(m)
    assert r.assignment == {0: 0, 1: 0}
    assert matched_columns(m, r) == {0: 0, 1: 1}
    assert (r.iterations, r.total_saving) == (iterations, total) == (2, 2.0)
    assert verify_duals(m, r, r.duals)


def fleet_build(seed: int, n: int = 200):
    """A battery-limited n x n fleet like the benchmark's mixed one:
    deadlines 1.3x the direct time, batteries at a random level, about 10%
    swap vehicles, one seat each."""
    rng = random.Random(seed)
    tasks = []
    for _ in range(n):
        x = rng.uniform(0.5, 20.0)
        capacity = rng.uniform(0.05, 0.5)
        tasks.append(UavTask(x, 60.0, 1.3 * x / 60.0, capacity, capacity * rng.random()))
    offers = [
        VehicleOffer(
            rng.uniform(20.0, 60.0), math.inf if rng.random() < 0.1 else rng.uniform(0.0, 1.5)
        )
        for _ in range(n)
    ]
    theta = [[rng.uniform(0.0, math.pi) for _ in offers] for _ in tasks]
    return build_saving_matrix(PlannerConfig(omega=0.8), tasks, offers, theta, limited=True)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_msa_match_equals_reference_on_limited_fleets(seed):
    m = fleet_build(seed)
    r = msa_match(m)
    matched, iterations, p, q, total = scalar_msa_match(m)
    assert r.iterations > 100
    assert r.assignment == {i: m.column_origin[j] for i, j in matched}
    assert repr((r.iterations, r.duals.p, r.duals.q, r.total_saving)) == repr(
        (iterations, p, q, total)
    )


def fleet_cap_build(seed: int, n_uavs: int = 200, n_vehicles: int = 20):
    """The benchmark's fleet_cap recipe at a smaller size: case-1 angles,
    trips uniform on (0, 20] at u = 60, vehicles at v = 40 and gamma = 0.3
    seating ten each, omega = 0.8 and tol 1e-9."""
    rng = np.random.default_rng(seed)
    xs = 20.0 * (1.0 - rng.random(n_uavs))
    theta = rng.uniform(0.0, math.pi, (n_uavs, n_vehicles))
    tasks = [UavTask(float(x), 60.0) for x in xs]
    offers = [VehicleOffer(40.0, 0.3, capacity=10)] * n_vehicles
    return build_saving_matrix(PlannerConfig(omega=0.8, tol=1e-9), tasks, offers, theta)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_msa_match_equals_reference_at_fleet_cap_shape(seed):
    # Full vehicles of ten riders join trees many times, and path flips
    # change their riders between one tree and the next: at seed 11, 36
    # trees add a full vehicle 144 times.
    m = fleet_cap_build(seed)
    r = msa_match(m)
    matched, iterations, p, q, total = scalar_msa_match(m)
    assert r.assignment == {i: m.column_origin[j] for i, j in matched}
    assert max(collections.Counter(r.assignment.values()).values()) == 10
    assert repr((r.iterations, r.duals.p, r.duals.q, r.total_saving)) == repr(
        (iterations, p, q, total)
    )


def random_tied_matrices(n: int = 3000, seed: int = 19):
    """Small matrices, 1-13 UAVs x 1-13 vehicles, with capacities 1-3: half
    drawn from five levels, so slacks and potentials tie exactly, half
    uniform with about 30% zero savings. A third have one seat per vehicle."""
    rng = random.Random(seed)
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(n):
        n_rows, n_vehicles = rng.randint(1, 13), rng.randint(1, 13)
        tied = rng.random() < 0.5
        saving = [
            [
                rng.choice(levels) if tied
                else 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 10.0)
                for _ in range(n_vehicles)
            ]
            for _ in range(n_rows)
        ]
        most = rng.randint(1, 3)
        yield SavingMatrix(saving, [rng.randint(1, most) for _ in range(n_vehicles)])


def test_msa_match_bits_pinned_on_random_tied_matrices():
    h = hashlib.sha256()
    for m in random_tied_matrices():
        r = msa_match(m)
        key = (r.assignment, r.iterations, r.duals.p, r.duals.q, r.total_saving)
        h.update(repr(key).encode())
    assert h.hexdigest() == (
        "e5adaa92ede6ddfc747e7573032d1b27531c3c39cfb989052f711316fb0ed7e9"
    )


def random_many_rider_matrices(n: int = 500, seed: int = 20):
    """10-40 UAVs x 2-6 vehicles with capacities 1-10, so full vehicles of
    many riders join trees: half drawn from five levels, so slacks and
    potentials tie exactly, half uniform with about 30% zero savings."""
    rng = random.Random(seed)
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(n):
        n_rows, n_vehicles = rng.randint(10, 40), rng.randint(2, 6)
        tied = rng.random() < 0.5
        saving = [
            [
                rng.choice(levels) if tied
                else 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 10.0)
                for _ in range(n_vehicles)
            ]
            for _ in range(n_rows)
        ]
        yield SavingMatrix(saving, [rng.randint(1, 10) for _ in range(n_vehicles)])


def test_msa_match_bits_pinned_on_many_rider_matrices():
    h = hashlib.sha256()
    for m in random_many_rider_matrices():
        r = msa_match(m)
        key = (
            r.assignment, matched_columns(m, r), r.iterations, r.duals.p, r.duals.q, r.total_saving
        )
        h.update(repr(key).encode())
    assert h.hexdigest() == (
        "3f7ed46b720b24d94440fa8d0cf4be45b8963127efc9ce925da6c6cff0076bc0"
    )

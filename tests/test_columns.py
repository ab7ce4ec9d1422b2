"""Scenario columns: one read-only array per model field.

``Scenario.tasks`` and ``offers`` hold the fields of every ``UavTask`` and
``VehicleOffer`` as columns, checked once with numpy, and make a model
object only when an entry is read. These tests pin that the columns accept
exactly the entries the model types accept, reject the first bad one with
the model's own message, read back as the objects the generator and the
loader used to make, and plan to the same bits as lists of objects.
"""

import copy
import math
import pickle
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavhitch import (
    GeneratorParams,
    PlannerConfig,
    Scenario,
    UavTask,
    VehicleOffer,
    build_saving_matrix,
    case_theta_range,
    generate_scenario,
)
from uavhitch.matching import OfferColumns, TaskColumns, theta_array
from uavhitch.model import GEOMETRY_RULES, OFFER_RULES, TASK_RULES, PairGeometry
from uavhitch.scenario_io import dump_scenario, scenario_from_dict, scenario_to_dict

# Values at and around every bound the model checks.
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, 0.05, 0.2, 0.5, 1.0, 3.0, 60.0, 1e300,
     1.7976931348623157e308, math.inf, -math.inf, math.nan, -1.0]
)


def first_model_error(kind, rows, context):
    """The message of the first row the model type rejects, or None."""
    for i, row in enumerate(rows):
        try:
            kind(*row)
        except ValueError as exc:
            return f"{context}[{i}]: {exc}"
    return None


def columns_error(columns, rows, context):
    values = [[row[k] for row in rows] for k in range(len(columns.names))]
    try:
        columns(*values, context=context)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[EDGE_FLOATS] * 5), max_size=6))
def test_task_columns_reject_what_the_model_rejects(rows):
    assert columns_error(TaskColumns, rows, "uavs") == first_model_error(UavTask, rows, "uavs")


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(EDGE_FLOATS, EDGE_FLOATS, st.integers(-2, 3) | st.integers(2**62, 2**70)),
    max_size=6,
))
def test_offer_columns_reject_what_the_model_rejects(rows):
    got = columns_error(OfferColumns, rows, "vehicles")
    assert got == first_model_error(VehicleOffer, rows, "vehicles")


def test_a_generator_error_carries_no_context():
    with pytest.raises(ValueError) as info:
        TaskColumns([5.0, 0.0], [60.0, 60.0], [math.inf] * 2, [math.inf] * 2, [0.0, 0.0])
    assert str(info.value) == "distance x must be positive and finite, got 0.0"


def test_columns_read_as_a_sequence_of_model_objects():
    tasks = [UavTask(5.0, 60.0), UavTask(2.5, 45.0, 0.25, 0.4, 0.1)]
    columns = TaskColumns.of(tasks)
    assert TaskColumns.of(columns) is columns
    assert len(columns) == 2 and columns[1] == tasks[1] and columns[-1] == tasks[-1]
    assert list(columns) == tasks and columns == tasks and columns == tuple(tasks)
    assert tasks == columns and columns != tasks[:1] and columns[:1] == tasks[:1]
    assert repr(columns) == repr(tasks)
    with pytest.raises(IndexError):
        columns[2]
    assert columns.deadline.tolist() == [math.inf, 0.25]
    with pytest.raises(ValueError, match="read-only"):
        columns.x[0] = 1.0
    with pytest.raises(AttributeError, match="read-only"):
        columns.x = columns.u
    for copied in (copy.deepcopy(columns), pickle.loads(pickle.dumps(columns))):
        assert type(copied) is TaskColumns and copied == tasks


def test_a_capacity_past_int64_keeps_its_value():
    offers = OfferColumns([40.0], [0.3], [2**70])
    assert offers[0] == VehicleOffer(40.0, 0.3, 2**70) and offers.capacity.dtype == object
    assert OfferColumns([40.0], [0.3], [3]).capacity.dtype == np.int64


@pytest.mark.parametrize("deadline_factor", [None, 1.5])
def test_generated_entries_are_the_objects_the_generator_made(deadline_factor):
    # The generator used to make these objects per entry; its columns
    # read back as the same ones, bit for bit.
    p = GeneratorParams(n_uavs=6, n_vehicles=3, theta_range=case_theta_range(1), capacity=2,
                        deadline_factor=deadline_factor)
    s = generate_scenario(p, 17)
    xs = (p.x_max * (1.0 - np.random.default_rng(17).random(6))).tolist()
    k = deadline_factor
    want = [UavTask(x=x, u=p.u, deadline=math.inf if k is None else k * x / p.u) for x in xs]
    assert repr(list(s.tasks)) == repr(want)
    assert repr(list(s.offers)) == repr([VehicleOffer(v=40.0, gamma=0.3, capacity=2)] * 3)


def test_loaded_entries_are_the_objects_in_the_file():
    s = generate_scenario(GeneratorParams(n_uavs=2, n_vehicles=2), 1)
    d = scenario_to_dict(s)
    d["uavs"] = [{"x": 3, "u": 60, "deadline": 0.2, "battery_capacity": "inf"},
                 {"x": 12.5, "u": 45.0, "battery_capacity": 0.4, "battery_level": -0.0}]
    d["vehicles"] = [{"v": 35, "gamma": "inf", "capacity": 2}, {"v": 40.0}]
    loaded = scenario_from_dict(d)
    assert repr(list(loaded.tasks)) == repr([
        UavTask(3.0, 60.0, 0.2), UavTask(12.5, 45.0, battery_capacity=0.4, battery_level=-0.0)
    ])
    assert repr(list(loaded.offers)) == repr([VehicleOffer(35.0, math.inf, 2), VehicleOffer(40.0)])


@pytest.mark.parametrize("limited", [False, True])
def test_columns_and_lists_of_objects_plan_to_the_same_bits(limited):
    tasks = [UavTask(5.0, 60.0, 0.2, 0.3, 0.1), UavTask(12.0, 50.0), UavTask(8.0, 60.0, 0.4)]
    offers = [VehicleOffer(40.0, 0.3, 2), VehicleOffer(25.0, math.inf), VehicleOffer(35.0)]
    theta = np.linspace(0.0, 2.0, 9).reshape(3, 3)
    s = Scenario(tasks=tasks, offers=offers, geoms=theta, config=PlannerConfig())
    assert isinstance(s.tasks, TaskColumns) and isinstance(s.offers, OfferColumns)
    from_lists = build_saving_matrix(s.config, tasks, offers, theta, limited)
    from_columns = build_saving_matrix(s.config, s.tasks, s.offers, s.geoms, limited)
    assert from_lists.saving.tobytes() == from_columns.saving.tobytes()
    assert from_lists.capacity == from_columns.capacity == [2, 1, 1]
    assert dump_scenario(s) == dump_scenario(Scenario(
        tasks=list(s.tasks), offers=list(s.offers), geoms=theta, config=s.config))


TABLES = {UavTask: TASK_RULES, VehicleOffer: OFFER_RULES, PairGeometry: GEOMETRY_RULES}
VALID = {UavTask: (5.0, 60.0, 0.25, 0.4, 0.1), VehicleOffer: (40.0, 0.3, 2), PairGeometry: (1.0,)}
# Per table row, in order, an entry that breaks that row and no other.
BREAKS_ONE_ROW = {
    UavTask: [
        (-1.0, 60.0, math.inf, math.inf, 0.0),
        (5.0, -1.0, math.inf, math.inf, 0.0),
        (1e308, 1e-300, math.inf, math.inf, 0.0),  # x / u overflows
        (5e-324, 1e300, 0.0, math.inf, 0.0),  # x / u underflows to the deadline
        (5.0, 60.0, 0.05, math.inf, 0.0),
        (5.0, 60.0, math.inf, 0.0, 0.0),
        (5.0, 60.0, math.inf, math.inf, -1.0),
        (5.0, 60.0, math.inf, 0.4, 0.5),
    ],
    VehicleOffer: [(0.0, 0.3, 1), (40.0, -0.5, 1), (40.0, 0.3, 0)],
    PairGeometry: [(3.5,)],
}


@pytest.mark.parametrize(
    "kind, row", [(kind, row) for kind, rules in TABLES.items() for row in range(len(rules))],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_every_rule_row_is_raised_alike_by_the_model_and_the_columns(kind, row):
    rules, bad = TABLES[kind], BREAKS_ONE_ROW[kind][row]  # a new row needs its own case
    names = [f.name for f in fields(kind)]
    as_arrays = SimpleNamespace(**{name: np.array([value]) for name, value in zip(names, bad)})
    with np.errstate(all="ignore"):
        assert [k for k, rule in enumerate(rules) if not rule.ok(as_arrays)] == [row]
    message = rules[row].message(SimpleNamespace(**dict(zip(names, bad))))
    with pytest.raises(ValueError) as info:
        kind(*bad)
    assert str(info.value) == message
    if kind is PairGeometry:
        with pytest.raises(ValueError) as info:
            theta_array([[VALID[kind][0], bad[0]]], 1, 2)
        assert str(info.value) == f"theta[0,1]: {message}"
        return
    columns = {UavTask: TaskColumns, VehicleOffer: OfferColumns}[kind]
    values = [list(pair) for pair in zip(VALID[kind], bad)]
    for context, prefix in ((None, ""), ("entries", "entries[1]: ")):
        with pytest.raises(ValueError) as info:
            columns(*values, context=context)
        assert str(info.value) == prefix + message

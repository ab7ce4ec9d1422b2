"""Rules on the package source.

The builtin ``sum`` adds floats with compensated summation from Python 3.12
on, so a float total could differ in its last bits between interpreters and
move same-seed CSV bytes. The package adds floats left to right instead
(``simlab._sum_in_order``); one test fails on any call to the builtin.

Every plan comes from ``planner.plan_matrix``, so a ``HitchPlan`` is built
in one place only, ``PlanArrays.plan``; another test fails on any other
construction, which would be a second planning path.

Each planner formula is written once, in the array kernels that
``plan_matrix`` and the one-pair helpers share. The planner binds every
transcendental it uses once, in a table of module-level names (``math``'s
through ``np.frompyfunc`` where numpy's differ in the last bit); a third
test fails on any other mention, which would be a second transcription.

The capacity-expanded view, one column per seat, is kept for the
benchmark's tracer until it is deleted: ``SavingMatrix`` derives
``column_origin``, ``n_vehicles``, ``weights`` and ``plans`` on first
read. The solvers and the certificate work on the (I, J) savings and seat
counts, and the package reads a matched pair's plan from
``SavingMatrix.arrays``; a fourth test fails on any read of
``column_origin``, ``weights``, ``plans`` or ``matched_columns`` outside
``SavingMatrix``'s own class body, which would bring a reader back.
``n_vehicles`` is left out because ``GeneratorParams.n_vehicles`` shares
the name.

The battery model is the headroom: ``plan_matrix`` takes one per UAV, and
``plan_pair``, ``select_vehicle``, ``energy`` and ``consumption`` read the
task's own ``battery_headroom``, which is infinite for an unbounded
battery. A fifth test fails on any function parameter named ``limited``
in ``planner.py``, which would be a second switch for the same model.

The planner's ``_hypot`` is its own correctly rounded numpy function, so
the result bits rest on IEEE arithmetic rather than on the interpreter's
``math.hypot``, which is also a per-element Python call. A sixth test
fails on any ``np.frompyfunc(math.hypot, ...)`` in ``planner.py``.

``scenario_io.load_scenario`` parses with orjson, and ``match`` writes
its JSON floats with it, importing it on the first load or write. Its
import takes 10-15 ms, and the benchmark gates the time a fresh
interpreter takes to import ``uavhitch.cli``. A seventh test fails on an
import of orjson that runs when a module of the package is imported, one
outside a function body, and checks that importing the CLI leaves orjson
unimported.

Each field rule of ``UavTask``, ``VehicleOffer`` and ``PairGeometry`` is
written once, as a row of its model type's table in ``model.py``, which
the model objects and the scenario columns both run. An eighth test fails
when the text of a row's message (its longest literal piece) appears in
any other string of the package, which would be a second transcription
of the rule.
"""

import ast
import pathlib
import subprocess
import sys

import uavhitch
from uavhitch.model import GEOMETRY_RULES, OFFER_RULES, TASK_RULES

PACKAGE = pathlib.Path(uavhitch.__file__).parent


def builtin_sum_calls(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def test_package_source_calls_no_builtin_sum():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    calls = [site for path in modules for site in builtin_sum_calls(path)]
    assert not calls, f"builtin sum() called at {calls}"


def hitch_plan_builders(path: pathlib.Path) -> list[str]:
    """``file:Class.function`` of every ``HitchPlan(...)`` call in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "HitchPlan":
                    found.append(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope)

    visit(tree, ())
    return found


def test_hitch_plans_are_built_only_by_plan_arrays():
    modules = sorted(PACKAGE.rglob("*.py"))
    builders = [site for path in modules for site in hitch_plan_builders(path)]
    assert builders == ["planner.py:PlanArrays.plan"]


TRANSCENDENTALS = {"acos", "hypot", "pow", "sqrt", "sin", "cos", "copysign"}


def is_table_entry(node: ast.AST) -> bool:
    """``name = np.frompyfunc(...)`` or ``name = np.f`` (or ``math.f``)."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return False
    value = node.value
    if isinstance(value, ast.Call):
        if not (isinstance(value.func, ast.Attribute) and value.func.attr == "frompyfunc"):
            return False
        value = value.func
    return isinstance(value, ast.Attribute) and is_module(value.value)


def is_module(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("math", "np", "numpy")


def transcendentals_outside_the_table(path: pathlib.Path) -> list[str]:
    """``file:line`` of every ``math.f``/``np.f`` mention of a transcendental
    outside a module-level table entry."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    table = {id(n) for stmt in tree.body if is_table_entry(stmt) for n in ast.walk(stmt)}
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in TRANSCENDENTALS
        and is_module(node.value)
        and id(node) not in table
    ]


def test_planner_transcendentals_appear_only_in_its_table():
    sites = transcendentals_outside_the_table(PACKAGE / "planner.py")
    assert not sites, f"transcendentals outside the table at {sites}"


EXPANDED_VIEW = {"column_origin", "weights", "plans", "matched_columns"}


def expanded_view_reads(path: pathlib.Path) -> list[str]:
    """``file:line:name`` of every read of an expanded-view attribute in a
    module, outside the body of ``SavingMatrix``, which derives them."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "SavingMatrix":
                continue
            if (isinstance(child, ast.Attribute) and child.attr in EXPANDED_VIEW
                    and not isinstance(child.ctx, ast.Store)):
                found.append(f"{path.name}:{child.lineno}:{child.attr}")
            visit(child)

    visit(tree)
    return found


def test_package_source_never_reads_saving_matrix_plans():
    modules = sorted(PACKAGE.rglob("*.py"))
    reads = [site for path in modules for site in expanded_view_reads(path)]
    assert not reads, f"expanded view read at {reads}"


def limited_parameters(path: pathlib.Path) -> list[str]:
    """``file:function`` of every function that takes a ``limited`` parameter."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    node.args.vararg, node.args.kwarg)
        if arg is not None and arg.arg == "limited"
    ]


def test_planner_takes_no_limited_flag():
    sites = limited_parameters(PACKAGE / "planner.py")
    assert not sites, f"limited parameter at {sites}"


def math_hypot_ufuncs(path: pathlib.Path) -> list[str]:
    """``file:line`` of every ``np.frompyfunc(math.hypot, ...)`` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "frompyfunc"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "hypot"
        and is_module(node.args[0].value)
    ]


def test_planner_wraps_no_math_hypot():
    sites = math_hypot_ufuncs(PACKAGE / "planner.py")
    assert not sites, f"np.frompyfunc(math.hypot, ...) at {sites}"


def import_time_imports(path: pathlib.Path, name: str) -> list[str]:
    """``file:line`` of every import of module ``name`` outside a function
    body, which runs when the module is imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.partition(".")[0] == name for m in modules):
                found.append(f"{path.name}:{child.lineno}")
            visit(child)

    visit(tree)
    return found


def test_orjson_is_imported_only_when_a_file_is_loaded():
    modules = sorted(PACKAGE.rglob("*.py"))
    sites = [site for path in modules for site in import_time_imports(path, "orjson")]
    assert not sites, f"orjson imported at module level at {sites}"
    probe = "import sys, uavhitch.cli; print('orjson' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert child.stdout == "False\n", child.stderr


RULE_TABLES = {"TASK_RULES", "OFFER_RULES", "GEOMETRY_RULES"}


def rule_messages(tree: ast.Module) -> tuple[set[int], set[str]]:
    """The ids of the nodes of ``model.py``'s rule tables, and the longest
    literal piece of each row's message there."""
    tables = [
        stmt for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in RULE_TABLES for t in stmt.targets)
    ]
    assert len(tables) == len(RULE_TABLES)
    pieces = {
        max((v.value for v in node.values if isinstance(v, ast.Constant)), key=len)
        for table in tables for node in ast.walk(table) if isinstance(node, ast.JoinedStr)
    }
    return {id(n) for table in tables for n in ast.walk(table)}, pieces


def test_field_rule_messages_are_written_only_in_the_tables():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    table_nodes, messages = rule_messages(trees["model.py"])
    assert len(messages) == len(TASK_RULES) + len(OFFER_RULES) + len(GEOMETRY_RULES)
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in table_nodes
        and any(message in node.value for message in messages)
    ]
    assert not sites, f"a field rule's message written again at {sites}"

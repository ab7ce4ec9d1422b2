"""Rules on the package source that keep results identical across Python
versions.

The builtin ``sum`` adds floats with compensated summation from Python 3.12
on, so a float total could differ in its last bits between interpreters and
move same-seed CSV bytes. The package adds floats left to right instead
(``simlab._sum_in_order``); this test fails on any call to the builtin.
"""

import ast
import pathlib

import uavhitch

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

"""The README's ledger of the paper's claims names only what exists.

Each row of the ledger, under "The paper's claims", names the package
functions that implement a claim (``module.function``) and the tests that
check it (``tests/file.py::test_name``). A test here fails when one of
them is gone, so a renamed test or function cannot leave the ledger
pointing at nothing. Tests are found by parsing ``tests/*.py`` with
``ast``, with no pytest run.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def ledger() -> str:
    """The text of the README's ledger section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## The paper's claims\n", 1)[1]
    return section.split("\n## ", 1)[0]


def defined_tests(path: pathlib.Path) -> set[str]:
    """The names of the module-level test functions of a test file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
    }


def test_every_test_the_ledger_names_exists():
    named = re.findall(r"`tests/(test_\w+\.py)::(test_\w+)`", ledger())
    assert len(named) >= 5
    missing = [
        f"{file}::{name}" for file, name in named
        if not (ROOT / "tests" / file).is_file()
        or name not in defined_tests(ROOT / "tests" / file)
    ]
    assert not missing, f"the ledger names tests that do not exist: {missing}"


def test_every_function_the_ledger_names_exists():
    named = re.findall(r"`(planner|matching|simlab)\.(\w+)`", ledger())
    assert len(named) >= 5
    missing = [
        f"{module}.{name}" for module, name in named
        if not callable(getattr(importlib.import_module(f"uavhitch.{module}"), name, None))
    ]
    assert not missing, f"the ledger names functions that do not exist: {missing}"

"""The suite's warning filters keep a failing Hypothesis test one failure.

When a ``@given`` test fails, Hypothesis's pytest plugin imports libcst to
write a patch with the failing example, and libcst's import warns that
``mypy_extensions.TypedDict`` is deprecated. Under ``pyproject.toml``'s
``error::DeprecationWarning`` that warning used to end the run with
INTERNALERROR (exit 3), and no later test ran. This runs a failing
``@given`` test and a passing test after it in a child pytest under the
repository's settings. The child is a new interpreter, so libcst is
imported there afresh.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD_TESTS = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD_TESTS, encoding="utf-8")
    child = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = child.stdout[-4000:] + child.stderr[-2000:]
    assert child.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in child.stdout, out

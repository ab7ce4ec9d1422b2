"""The suite's settings keep one bad test from ending or stalling the run.

The warning filters keep a failing Hypothesis test one failure.

When a ``@given`` test fails, Hypothesis's pytest plugin imports libcst to
write a patch with the failing example, and libcst's import warns that
``mypy_extensions.TypedDict`` is deprecated. Under ``pyproject.toml``'s
``error::DeprecationWarning`` that warning used to end the run with
INTERNALERROR (exit 3), and no later test ran. This runs a failing
``@given`` test and a passing test after it in a child pytest under the
repository's settings. The child is a new interpreter, so libcst is
imported there afresh.

The watchdog (``faulthandler_timeout`` with ``faulthandler_exit_on_timeout``)
ends a run whose test hangs, with a traceback, instead of letting it
stall: a child pytest under the same settings, its limit cut to 2 s, runs
a test that sleeps past it.
"""

import os
import subprocess
import sys
import time

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


HANGING_TESTS = """
import time


def test_before():
    pass


def test_hangs():
    time.sleep(60)


def test_after():
    pass
"""


def run_child(tmp_path, tests: str, *options: str) -> subprocess.CompletedProcess:
    """A child pytest of ``tests`` under the repository's settings."""
    (tmp_path / "test_child.py").write_text(tests, encoding="utf-8")
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
            *options, "test_child.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    child = run_child(tmp_path, CHILD_TESTS)
    out = child.stdout[-4000:] + child.stderr[-2000:]
    assert child.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in child.stdout, out


def test_watchdog_ends_a_hanging_test_with_a_traceback(tmp_path):
    start = time.monotonic()
    child = run_child(tmp_path, HANGING_TESTS, "-o", "faulthandler_timeout=2")
    out = child.stdout[-4000:] + child.stderr[-4000:]
    assert time.monotonic() - start < 50, out  # well before the sleep ends
    assert child.returncode == 1, out
    assert "Timeout" in child.stderr and "test_hangs" in child.stderr, out
    assert "passed" not in child.stdout, out  # the run ended; test_after never ran

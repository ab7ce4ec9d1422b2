"""The pinned output bits under numpy's other SIMD dispatch targets.

numpy chooses the SIMD kernels of ``cos``, ``sin`` and ``sqrt`` when it is
imported, from the dispatch groups the CPU reports. The pins were taken with
every group on; this reruns the byte pins, the matcher's bit pins and the
ufunc check in a child pytest with groups switched off through
``NPY_DISABLE_CPU_FEATURES``: once without the AVX-512 groups, which leaves
AVX2 where the CPU has it, and once without any, which leaves numpy's
baseline. numpy reads the variable at import, so it acts on the child only.
A run that would switch nothing off on this CPU is skipped.
"""

import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = [
    "tests/test_output_bytes.py",
    "tests/test_matching_bits.py",
    "tests/test_plan_matrix.py::test_kernel_ufuncs_match_math",
]
REPORTED = [group for group in __cpu_dispatch__ if __cpu_features__.get(group)]
RUNS = {
    # X86_V4 is the AVX-512 foundation; the AVX512_* groups extend it.
    "no_avx512": [g for g in REPORTED if g.startswith("AVX512") or g == "X86_V4"],
    "baseline": REPORTED,
}
ACTIVE = (
    "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__;"
    "print(' '.join(g for g in __cpu_dispatch__ if __cpu_features__[g]))"
)


@pytest.mark.parametrize("run", list(RUNS))
def test_pins_hold_with_dispatch_groups_off(run):
    off = RUNS[run]
    if not off:
        pytest.skip("the CPU reports no such dispatch group")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    active = subprocess.run(
        [sys.executable, "-c", ACTIVE], capture_output=True, text=True, env=env, timeout=60
    )
    assert active.returncode == 0, active.stderr
    assert active.stdout.split() == [g for g in REPORTED if g not in off]

    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]

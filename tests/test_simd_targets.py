"""The golden artifact hashes hold under numpy SIMD targets the host does not pick.

numpy dispatches each ufunc loop to the best SIMD target the CPU offers,
and NPY_DISABLE_CPU_FEATURES turns targets off at import. Loops for one
function may round differently from one target to the next (np.exp and
np.log do in their AVX-512 versions), so an artifact byte computed by
such a loop can move from one CPU to the next. This test runs the whole
golden suite again in a subprocess with the targets above X86_V3 turned
off, then with X86_V3 off too, so such a dependence fails on every
machine that has those targets, not only on CPUs that lack them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
ABOVE_V3 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
# target -> the features turned off to reach it
TARGETS = {"X86_V3": ABOVE_V3, "X86_V2": ABOVE_V3 + ("X86_V3",)}


@pytest.mark.parametrize("target", TARGETS)
def test_golden_hashes_hold_under_another_simd_target(target):
    if not __cpu_features__.get(target):
        pytest.skip(f"the host lacks {target}")
    disabled = [name for name in TARGETS[target] if __cpu_features__.get(name)]
    if not disabled:
        pytest.skip(f"{target} is the host's own target, which test_golden.py runs")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    # no cache provider: the run leaves nothing in the checkout; -rfE puts the failing
    # tests' names, not every PASSED line, in the summary the message's tail shows
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_golden.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"golden suite under NPY_DISABLE_CPU_FEATURES={env['NPY_DISABLE_CPU_FEATURES']!r}:\n{proc.stdout[-4000:]}"

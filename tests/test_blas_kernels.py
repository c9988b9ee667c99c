"""The golden artifact hashes hold under BLAS kernels the host does not pick.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel for the CPU at
load time, and OPENBLAS_CORETYPE overrides the pick. Kernels may round
a float sum differently, so an artifact byte that depends on a BLAS or
LAPACK result can move from one CPU to the next. This test runs the
whole golden suite again in a subprocess under two other kernels, so
such a dependence fails on every machine, not only on CPUs that pick
those kernels.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("Haswell", "Sandybridge")


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name', '')} {blas.get('openblas configuration', '')}"
    return "openblas" in name.lower() and "DYNAMIC_ARCH" in name


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("kernel", KERNELS)
def test_golden_hashes_hold_under_another_blas_kernel(kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    # no cache provider: the run leaves nothing in the checkout
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_golden.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"golden suite under OPENBLAS_CORETYPE={kernel}:\n{proc.stdout[-4000:]}"

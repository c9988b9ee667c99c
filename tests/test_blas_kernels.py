"""Artifact hashes, the nearest-code search and Lloyd's loss traces hold
under BLAS kernels the host does not pick.

An OpenBLAS built with DYNAMIC_ARCH picks its kernel for the CPU at
load time, and OPENBLAS_CORETYPE overrides the pick. Kernels may round
a float sum differently, so an artifact byte that depends on a BLAS or
LAPACK result can move from one CPU to the next. These tests run the
golden suite and the codebook tests again in a subprocess under two
other kernels, and fit one pool under each, so such a dependence fails
on every machine, not only on CPUs that pick those kernels.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("Haswell", "Sandybridge")

# one fit per code-count pair on a fixed pool, its loss traces printed as JSON (floats round-trip)
FIT_LOSSES = """
import json, sys
import numpy as np
from codechain import rvq
latents = rvq._znorm(np.random.default_rng(0).normal(size=(200, 3, 16, 8)))
traces = []
for n_coarse, n_fine in json.loads(sys.argv[1]):
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse, n_fine, seed=1)
    traces.append([fit.coarse_losses, fit.fine_losses])
print(json.dumps(traces))
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name', '')} {blas.get('openblas configuration', '')}"
    return "openblas" in name.lower() and "DYNAMIC_ARCH" in name


def _run(kernel: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


needs_dynamic_openblas = pytest.mark.skipif(
    not _dynamic_openblas(), reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
)


@needs_dynamic_openblas
@pytest.mark.parametrize("kernel", KERNELS)
def test_golden_hashes_hold_under_another_blas_kernel(kernel):
    # no cache provider: the run leaves nothing in the checkout
    suites = [str(ROOT / "tests" / name) for name in ("test_golden.py", "test_rvq.py")]
    proc = _run(kernel, ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *suites])
    assert proc.returncode == 0, f"golden and codebook suites under OPENBLAS_CORETYPE={kernel}:\n{proc.stdout[-4000:]}"


@needs_dynamic_openblas
def test_lloyd_loss_traces_are_the_same_floats_under_every_kernel():
    shapes = json.dumps([[8, 64], [64, 8]])
    traces = {}
    for kernel in KERNELS:
        proc = _run(kernel, ["-c", FIT_LOSSES, shapes])
        assert proc.returncode == 0, proc.stderr[-4000:]
        traces[kernel] = json.loads(proc.stdout)
    assert traces["Haswell"] == traces["Sandybridge"]

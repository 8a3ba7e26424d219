"""The determinism contract across BLAS kernels.

Within one BLAS build a replay keeps every bit. Across builds, or across the
kernels one build picks between, the verdicts and ``retrained`` flags are
equal and the forecasts agree within ``FORECAST_RTOL``: the kernels sum the
step's products in other orders, so the last bits of a forecast may differ.

numpy's wheel bundles a ``DYNAMIC_ARCH`` OpenBLAS, which picks its kernels for
the CPU when it loads; ``OPENBLAS_CORETYPE``, set on a child process only,
picks others. Each kernel replays the first 2500 points of the benchmark's
bursty series, seed 1, in its own process; about 20 of them are rechecked.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import REPO_ROOT

#: Relative bound on a forecast across kernels. On a SkylakeX default the
#: largest difference measured against Haswell, Sandybridge and Prescott over
#: whole replays of steady and bursty was 1.9e-16.
FORECAST_RTOL = 1e-12

KERNELS = ["Haswell", "Sandybridge", "Prescott"]

REPLAY = r"""
import ctypes, glob, json, os, sys

import numpy as np

root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
from presage import Detector
from series import bursty

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
try:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    core = corename().decode()
except (IndexError, AttributeError, OSError):  # not numpy's bundled OpenBLAS
    core = None
detector = Detector()
records = [detector.step(value) for value in bursty(1)[:2500].tolist()]
print(json.dumps({
    "core": core,
    "predicted": [r.predicted for r in records],
    "verdicts": [r.verdict.value for r in records],
    "retrained": [r.retrained for r in records],
}))
"""


def replay(kernel: str | None) -> dict:
    """The replay's core name, forecasts, verdicts and ``retrained`` flags, run
    in a child process whose ``OPENBLAS_CORETYPE`` is ``kernel``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run(
        [sys.executable, "-c", REPLAY, str(REPO_ROOT)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def default():
    run = replay(None)
    if run["core"] is None:
        pytest.skip("numpy's BLAS is not a bundled scipy-openblas that reports its kernel")
    return run


@pytest.mark.parametrize("kernel", KERNELS)
def test_another_kernel_gives_the_same_verdicts_and_close_forecasts(default, kernel):
    run = replay(kernel)
    if run["core"] == default["core"]:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} runs the default {default['core']} kernels here")
    assert run["verdicts"] == default["verdicts"]
    assert run["retrained"] == default["retrained"]
    assert sum(default["retrained"]) >= 10  # the recheck path ran
    for got, want in zip(run["predicted"], default["predicted"], strict=True):
        assert (got is None) == (want is None)
        assert want is None or got == pytest.approx(want, rel=FORECAST_RTOL, abs=0)

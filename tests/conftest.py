"""Shared fixtures for the test suite."""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import pytest

# Keep test runs hermetic: unless the caller pinned a cache location
# (CI's warm-cache pass sets REPRO_CACHE explicitly), point the
# compile-artifact disk cache at a throwaway directory instead of the
# user's ~/.cache/repro, so tests neither read stale entries nor leave
# thousands of fuzz-module entries behind.
if "REPRO_CACHE" not in os.environ:
    _cache_tmp = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["REPRO_CACHE"] = _cache_tmp
    atexit.register(shutil.rmtree, _cache_tmp, True)

from repro.cfg.build import build_module_graphs
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module

# A small FIR-like kernel used by many optimizer / analysis tests: nested
# loops, a guard branch, float MACs, a global-scalar loop bound.
FIR_LIKE_SOURCE = """
float x[40];
float h[8];
float y[40];
int n = 40;
int taps = 8;

int main() {
    int i; int k;
    for (i = 0; i < n; i++) {
        float acc;
        acc = 0.0;
        for (k = 0; k < taps; k++) {
            if (i - k >= 0) {
                acc += h[k] * x[i - k];
            }
        }
        y[i] = acc;
    }
    return 0;
}
"""

# Integer variant with multiplies and shifts (chain-rich).
INT_KERNEL_SOURCE = """
int x[64];
int y[64];
int n = 64;

int main() {
    int i;
    y[0] = x[0];
    for (i = 1; i < n - 1; i++) {
        int acc;
        acc = x[i - 1] + 3 * x[i] + x[i + 1];
        y[i] = acc >> 2;
    }
    y[n - 1] = x[n - 1];
    return 0;
}
"""


def fir_like_inputs():
    import random
    rng = random.Random(7)
    return {
        "x": [rng.uniform(-1, 1) for _ in range(40)],
        "h": [rng.uniform(-1, 1) for _ in range(8)],
    }


def int_kernel_inputs():
    import random
    rng = random.Random(11)
    return {"x": [rng.randint(-256, 255) for _ in range(64)]}


@pytest.fixture(scope="session")
def fir_like_module():
    return compile_source(FIR_LIKE_SOURCE, "fir_like")


@pytest.fixture(scope="session")
def int_kernel_module():
    return compile_source(INT_KERNEL_SOURCE, "int_kernel")


@pytest.fixture(scope="session")
def fir_like_runs(fir_like_module):
    """(level -> (graph_module, MachineResult)) for the FIR-like kernel."""
    inputs = fir_like_inputs()
    runs = {}
    for level in (0, 1, 2):
        gm, _ = optimize_module(fir_like_module, OptLevel(level))
        runs[level] = (gm, run_module(gm, inputs))
    return runs


@pytest.fixture(scope="session")
def mini_study():
    """A small but real study over three fast benchmarks."""
    from repro.feedback.study import StudyConfig, run_study
    config = StudyConfig(benchmarks=("sewha", "bspline", "dft"),
                         lengths=(2, 3, 4))
    return run_study(config)


@pytest.fixture(scope="session")
def frontier_serial():
    """The whole-suite frontier study up to budget 2600, serial.

    Shared by the frontier tests and the suite-chain-table golden pin,
    so the suite is swept and measured once per session.
    """
    from repro.feedback.study import FrontierStudyConfig, run_frontier_study
    return run_frontier_study(
        FrontierStudyConfig(max_budget=2600, jobs=1))


def compile_and_run(source: str, inputs=None, level: int = 0,
                    name: str = "t"):
    """Compile mini-C, optimize at *level*, simulate, return MachineResult."""
    module = compile_source(source, name)
    gm, _ = optimize_module(module, OptLevel(level))
    return run_module(gm, inputs)


def run_all_levels(source: str, inputs=None, name: str = "t"):
    """Run a program at levels 0/1/2 and assert identical outputs.

    Returns the level-0 MachineResult.
    """
    module = compile_source(source, name)
    reference = None
    for level in (0, 1, 2):
        gm, _ = optimize_module(module, OptLevel(level))
        result = run_module(gm, inputs)
        if reference is None:
            reference = result
        else:
            assert result.return_value == reference.return_value, \
                f"level {level} return value diverged"
            assert result.globals_after == reference.globals_after, \
                f"level {level} memory state diverged"
    return reference

"""Verify-on-load benchmarks: the warm study with the gate on/off.

Under ``REPRO_VERIFY=1`` every codegen entry served from disk is compared
with a fresh generation of its module, so a gated warm study pays the
lowering, source emission and compile a cold one pays, and skips only
the store.  Three shapes pin that down:

* **the warm study, gate off** — a four-benchmark ``run_study`` on the
  codegen tier with every compile artifact already on disk (the
  denominator);
* **the warm study, gate on** — the identical study with verify-on-load
  active, so every served entry is compared with a fresh generation
  before use.  The ratio to the leg above is the cost of the gate;
* **the ``repro verify`` sweep** — one benchmark at levels 0-2 through
  the range analysis, watching the absolute cost of the static
  analysis in isolation (no simulation at all).

Run with ``--benchmark-json=bench_verify.json`` (as CI does); the
headline numbers are recorded in ``benchmarks/results/bench_verify.json``.
"""

import pytest

from repro.analysis.sweep import run_sweep
from repro.feedback.study import StudyConfig, run_study
from repro.sim import diskcache

BENCHMARKS = ("edge", "sewha", "fir", "iir")
CONFIG = StudyConfig(benchmarks=BENCHMARKS, engine="codegen", jobs=1)


def _assert_study(study):
    assert study.names() == list(BENCHMARKS)
    cache = diskcache.get_cache()
    assert cache.hits["codegen"] > 0  # warm: generation served from disk
    assert not cache.rejected  # nothing tripped the gate


@pytest.fixture()
def warm_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.delenv(diskcache.VERIFY_ENV_VAR, raising=False)
    diskcache.reset_cache_state()
    run_study(CONFIG)  # prime every artifact of the matrix
    yield
    diskcache.reset_cache_state()


def test_warm_study_gate_off(benchmark, warm_cache):
    """The denominator: a warm study with verify-on-load inactive."""
    study = benchmark.pedantic(run_study, args=(CONFIG,),
                               rounds=3, iterations=1, warmup_rounds=1)
    _assert_study(study)


def test_warm_study_gate_on(benchmark, warm_cache, monkeypatch):
    """The same warm study with every cache load compared with a fresh
    generation — the ratio to ``gate_off`` is the overhead the README
    quotes."""
    monkeypatch.setenv(diskcache.VERIFY_ENV_VAR, "1")
    study = benchmark.pedantic(run_study, args=(CONFIG,),
                               rounds=3, iterations=1, warmup_rounds=1)
    _assert_study(study)


def test_verify_sweep_single_benchmark(benchmark, warm_cache):
    """The range analysis in isolation: one benchmark, levels 0-2 — no
    simulation, just optimizing, lowering and the interval fixpoint."""
    report = benchmark.pedantic(
        run_sweep, kwargs={"benchmarks": ("edge",)},
        rounds=3, iterations=1)
    assert report.ok
    assert sum(cell.checks for cell in report.cells) > 0

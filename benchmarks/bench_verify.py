"""Verifier-overhead benchmarks: the warm study with the gate on/off.

PR 8's acceptance bar: turning ``REPRO_VERIFY=1`` on must cost a warm
``repro study`` under 5%.  Three shapes pin that down:

* **the warm study, gate off** — a four-benchmark ``run_study`` on the
  codegen tier with every compile artifact already on disk (the
  denominator);
* **the warm study, gate on** — the identical study with verify-on-load
  active, so every served payload passes the full static check
  (word layouts, edge/counter tables, generated-source AST invariants)
  before reconstruction.  The ratio to the leg above is the headline
  overhead number;
* **the verification sweep itself** — one benchmark through both
  engines' artifacts in ``repro verify``, watching the absolute cost of
  the checks in isolation (no simulation at all).

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
    """The same warm study with every cache load statically verified.
    The warmup round pays the one-per-digest check; the measured
    rounds see the memoized steady state — the ratio to ``gate_off``
    is the overhead the README quotes."""
    monkeypatch.setenv(diskcache.VERIFY_ENV_VAR, "1")
    study = benchmark.pedantic(run_study, args=(CONFIG,),
                               rounds=3, iterations=1, warmup_rounds=1)
    _assert_study(study)


def test_verify_sweep_single_benchmark(benchmark, warm_cache):
    """The static checks in isolation: one benchmark, levels 0-2, both
    engines' artifacts — no simulation, just lowering + verification."""
    report = benchmark.pedantic(
        run_sweep, kwargs={"benchmarks": ("edge",)},
        rounds=3, iterations=1)
    assert report.ok
    assert sum(cell.checks for cell in report.cells) > 0

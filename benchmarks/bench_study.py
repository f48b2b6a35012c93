"""Study-level performance benchmarks: serial vs parallel vs batched.

The engine benchmarks (``bench_engine.py``) watch single-simulation
throughput; this file watches the *study* — the full benchmark×level
matrix behind every table, figure and report.  Three execution shapes
are timed on the default matrix (12 benchmarks × levels 0/1/2):

* **serial** — ``run_study(jobs=1)``: the one task per benchmark, run
  in this process;
* **parallel** — ``run_study(jobs=4)``: the same tasks on a 4-worker
  process pool (each task runs its benchmark's levels 0, 1, 2 in
  order).  On a >= 4-core machine the target is a >= 2x wall-time win
  over serial; on fewer cores the pool only adds overhead, so the ratio
  is reported rather than asserted (see ``available_cpus``);
* **batched** — multi-seed runs through ``run_module_batch``, which
  compiles each cell once for all seeds, against the same seeds run as
  independent single-seed cells.

The three whole-matrix legs time *cold* studies: every round runs
against its own empty disk cache (the default engine stores a codegen
entry per module, so a shared cache would serve every round after the
first) and a freshly spawned worker pool (pool workers snapshot
``REPRO_CACHE`` when they fork).

Run with ``--benchmark-json=bench_study.json`` (as CI does) to emit the
same JSON shape as ``bench_engine.json`` for the perf trajectory.
"""

import itertools

import pytest

from repro.exec.pool import available_cpus, shutdown_pool
from repro.feedback.study import StudyConfig, run_study
from repro.opt.pipeline import OptLevel
from repro.sim.diskcache import CACHE_ENV_VAR
from repro.suite.registry import get_benchmark
from repro.suite.runner import run_benchmark

SEEDS = (0, 1, 2, 3, 4)


def _assert_full_matrix(study):
    assert len(study.benchmarks) == 12
    for name in study.names():
        assert set(study.benchmark(name).runs) == \
            {OptLevel(level) for level in (0, 1, 2)}


@pytest.fixture()
def cold_rounds(tmp_path, monkeypatch):
    """``cold_rounds(config)``: a ``benchmark.pedantic`` setup hook that
    gives each round an empty disk cache and no warm pool workers, and
    passes *config* to the timed ``run_study``."""
    counter = itertools.count()

    def setup_for(config):
        def setup():
            monkeypatch.setenv(CACHE_ENV_VAR,
                               str(tmp_path / f"round{next(counter)}"))
            shutdown_pool()
            return (config,), {}
        return setup

    yield setup_for
    shutdown_pool()


def test_study_serial(benchmark, cold_rounds):
    """The serial baseline: the denominator of the parallel speedup."""
    study = benchmark.pedantic(run_study,
                               setup=cold_rounds(StudyConfig(jobs=1)),
                               rounds=3, iterations=1)
    _assert_full_matrix(study)


def test_small_studies_repeated_parallel(benchmark):
    """Back-to-back small parallel studies: the shape where process-pool
    spin-up used to dominate.  The persistent pool pays it once."""
    if available_cpus() < 2:
        pytest.skip("single-CPU machine: a process pool cannot win")
    config = StudyConfig(benchmarks=("fir", "iir"), jobs=2)

    def three_studies():
        run_study(config)
        run_study(config)
        return run_study(config)

    study = benchmark.pedantic(three_studies, rounds=3, iterations=1)
    assert set(study.names()) == {"fir", "iir"}


def test_study_parallel_jobs4(benchmark, cold_rounds):
    """The full matrix on 4 workers (target: >= 2x over serial when the
    hardware has the cores; ratio against ``test_study_serial``).  Each
    round pays the pool spin-up, as a cold ``repro study --jobs 4``
    does."""
    if available_cpus() < 2:
        pytest.skip("single-CPU machine: a process pool cannot win")
    study = benchmark.pedantic(run_study,
                               setup=cold_rounds(StudyConfig(jobs=4)),
                               rounds=3, iterations=1)
    _assert_full_matrix(study)


def test_study_multiseed_batched(benchmark, cold_rounds):
    """Five seeds per (benchmark, level), batched: one compile per level
    for all seeds, every seed in its benchmark's one task."""
    study = benchmark.pedantic(
        run_study, setup=cold_rounds(StudyConfig(seeds=SEEDS)),
        rounds=2, iterations=1)
    _assert_full_matrix(study)
    run = study.benchmark("edge").run_at(1)
    assert run.seeds == SEEDS and len(run.seed_results) == len(SEEDS)


def _unbatched_multiseed(spec):
    return [run_benchmark(spec, OptLevel.PIPELINED, seed=seed)
            for seed in SEEDS]


def test_cell_multiseed_batched(benchmark):
    """One cell (edge @ level 1), five seeds through one compiled
    program; ratio against ``test_cell_multiseed_unbatched`` is the
    batching win."""
    spec = get_benchmark("edge")
    run = benchmark.pedantic(
        run_benchmark, args=(spec, OptLevel.PIPELINED),
        kwargs={"seeds": SEEDS}, rounds=3, iterations=1)
    assert run.seeds == SEEDS
    assert len({r.cycles for r in run.seed_results}) > 1


def test_cell_multiseed_unbatched(benchmark):
    """The same five seeds as five independent full cells (front end,
    optimizer and graph compilation re-paid per seed)."""
    spec = get_benchmark("edge")
    runs = benchmark.pedantic(_unbatched_multiseed, args=(spec,),
                              rounds=3, iterations=1)
    assert len(runs) == len(SEEDS)


def test_batched_equals_unbatched():
    """Correctness guard riding along with the perf numbers: the batched
    cell is bit-identical to the independent runs it replaces."""
    spec = get_benchmark("edge")
    batched = run_benchmark(spec, OptLevel.PIPELINED, seeds=SEEDS)
    for seed, result in zip(SEEDS, batched.seed_results):
        single = run_benchmark(spec, OptLevel.PIPELINED, seed=seed)
        assert result.cycles == single.cycles
        assert result.return_value == single.machine_result.return_value
        assert result.globals_after == single.machine_result.globals_after
        assert result.profile == single.profile

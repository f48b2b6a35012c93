"""Differential harness for the study executor: parallel == serial == ref.

Every reported number flows through ``run_study``, so its tasks run on a
worker pool (``jobs=2``) must be *indistinguishable* from the same tasks
run in this process (``jobs=1``), which in turn must be
indistinguishable from the PR-1 baseline loop (compile once per
benchmark, level 0 as semantic oracle, levels ascending).  The harness
pins, for every suite benchmark at every level:

* cycle counts, return values and the full post-run memory state;
* complete node/edge/call profiles;
* detection results, compared through their *portable projection* —
  sequence names, occurrence node paths and traversal counts, total op
  counts, and ranked frequencies.  Raw instruction uids are allocated
  from a process-global counter, so they differ between any two runs
  (even two serial runs in one process) and are deliberately excluded;
* the rendered paper artifacts (Tables 2/3), end to end.

Scheduler semantics (declaration order, duplicate keys, error
propagation), the one-task-per-benchmark schedule and the ``jobs`` knob
resolution are unit-tested below.
"""

import os
import pickle

import pytest

from repro.cfg.build import build_module_graphs
from repro.errors import ReproError
from repro.exec import pool as pool_mod
from repro.exec.pool import JOBS_ENV_VAR, available_cpus, resolve_jobs
from repro.exec.scheduler import ScheduleStats, Task, run_tasks
from repro.feedback.study import (BenchmarkStudy, StudyConfig, StudyResult,
                                  run_study)
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel
from repro.reporting.tables import table2, table3
from repro.sim.codegen import generate_module
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark, run_benchmark

SUITE = [spec.name for spec in all_benchmarks()]
LEVELS = (0, 1, 2)


# -- the three executions under comparison ----------------------------------------


def pr1_serial_baseline(config: StudyConfig) -> StudyResult:
    """The PR-1 ``run_study`` loop, inlined verbatim as the fixed point."""
    result = StudyResult(config=config)
    for spec in all_benchmarks():
        module = compile_benchmark(spec)
        study = BenchmarkStudy(spec=spec)
        reference = None
        for level in sorted(config.levels):
            run = run_benchmark(
                spec, OptLevel(level),
                lengths=config.lengths,
                seed=config.seed,
                unroll_factor=config.unroll_factor,
                check_against=reference if config.verify else None,
                module=module,
                engine=config.engine,
            )
            if level == 0 and config.verify:
                reference = run.machine_result
            study.runs[OptLevel(level)] = run
        result.benchmarks[spec.name] = study
    return result


@pytest.fixture(scope="module")
def baseline_study():
    return pr1_serial_baseline(StudyConfig())


@pytest.fixture(scope="module")
def serial_study():
    return run_study(StudyConfig(jobs=1))


@pytest.fixture(scope="module")
def parallel_study():
    return run_study(StudyConfig(jobs=2))


# -- comparison helpers ------------------------------------------------------------


def detection_projection(detection):
    """Everything a detection result *means*, minus process-local uids."""
    return {
        "total_ops": detection.total_ops,
        "lengths": detection.lengths,
        "sequences": {
            length: {
                name: sorted((occ.function, occ.nodes, occ.count)
                             for occ in seq.occurrences)
                for name, seq in by_name.items()
            }
            for length, by_name in detection.sequences.items()
        },
        "top": {length: detection.top(length)
                for length in detection.lengths},
    }


def assert_runs_identical(ra, rb):
    assert ra.cycles == rb.cycles
    assert ra.machine_result.return_value == rb.machine_result.return_value
    assert ra.machine_result.globals_after == rb.machine_result.globals_after
    assert ra.profile.node_counts == rb.profile.node_counts
    assert ra.profile.edge_counts == rb.profile.edge_counts
    assert ra.profile.call_counts == rb.profile.call_counts
    assert detection_projection(ra.detection) == \
        detection_projection(rb.detection)
    assert ra.seeds == rb.seeds
    assert [r.globals_after for r in ra.seed_results] == \
        [r.globals_after for r in rb.seed_results]
    assert [r.profile for r in ra.seed_results] == \
        [r.profile for r in rb.seed_results]


class TestStudyDifferential:
    """run_study(jobs=2) == run_study(jobs=1) == PR-1 baseline."""

    @pytest.mark.parametrize("name", SUITE)
    def test_parallel_equals_serial(self, name, serial_study,
                                    parallel_study):
        for level in LEVELS:
            assert_runs_identical(
                serial_study.benchmark(name).run_at(level),
                parallel_study.benchmark(name).run_at(level))

    @pytest.mark.parametrize("name", SUITE)
    def test_serial_equals_pr1_baseline(self, name, serial_study,
                                        baseline_study):
        for level in LEVELS:
            assert_runs_identical(
                baseline_study.benchmark(name).run_at(level),
                serial_study.benchmark(name).run_at(level))

    def test_benchmark_order_preserved(self, serial_study, parallel_study):
        assert parallel_study.names() == serial_study.names() == SUITE

    def test_rendered_tables_identical(self, serial_study, parallel_study,
                                       baseline_study):
        assert table2(parallel_study) == table2(serial_study) \
            == table2(baseline_study)
        assert table3(parallel_study) == table3(serial_study) \
            == table3(baseline_study)

    def test_suite_wide_combined_frequencies(self, serial_study,
                                             parallel_study):
        for level in LEVELS:
            a = serial_study.combined(level)
            b = parallel_study.combined(level)
            for length in (2, 3, 4, 5):
                assert a.top(length) == b.top(length)


class TestMultiSeedStudyDifferential:
    """The multi-seed matrix is equally jobs-invariant."""

    CONFIG = dict(benchmarks=("fir", "iir", "sewha"), seeds=(0, 1, 2))

    @pytest.fixture(scope="class")
    def serial(self):
        return run_study(StudyConfig(jobs=1, **self.CONFIG))

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_study(StudyConfig(jobs=3, **self.CONFIG))

    def test_bit_identical(self, serial, parallel):
        for name in self.CONFIG["benchmarks"]:
            for level in LEVELS:
                ra = serial.benchmark(name).run_at(level)
                rb = parallel.benchmark(name).run_at(level)
                assert ra.seeds == (0, 1, 2) == rb.seeds
                assert_runs_identical(ra, rb)
                assert ra.cycles_by_seed() == rb.cycles_by_seed()

    def test_oracle_checks_every_seed(self, serial):
        # every level-1/2 cell was verified against all three level-0
        # seed results (a mismatch would have raised during the fixture);
        # spot-check the references really do differ per seed.
        run0 = serial.benchmark("fir").run_at(0)
        snapshots = [r.globals_after for r in run0.seed_results]
        assert len(snapshots) == 3
        assert snapshots[0] != snapshots[1]


class TestProgressReporting:
    def test_parallel_progress_covers_matrix(self):
        seen = []
        run_study(StudyConfig(benchmarks=("fir", "iir"), jobs=2),
                  progress=lambda name, stage: seen.append((name, stage)))
        # one event per benchmark task, naming every level it runs
        assert sorted(seen) == [("fir", "levels 0,1,2"),
                                ("iir", "levels 0,1,2")]

    def test_parallel_oracle_ordering(self):
        seen = []
        study = run_study(StudyConfig(benchmarks=("fir",), levels=(2, 0, 1),
                                      jobs=2),
                          progress=lambda name, stage: seen.append(stage))
        # level 0 is the semantic oracle: the task runs it first.
        assert seen == ["levels 0,1,2"]
        assert list(study.benchmark("fir").runs) == [0, 1, 2]


# -- scheduler unit tests ----------------------------------------------------------


def _double(x):
    return 2 * x


def _worker_pid(_item):
    return os.getpid()


def _add(*xs):
    return sum(xs)


def _boom():
    raise ValueError("worker exploded")


def _slow_sentinel(path):
    import time
    time.sleep(0.3)
    with open(path, "w") as fh:
        fh.write("done")
    return path


class TestScheduler:
    def _tasks(self):
        return [Task("a", _double, (1,)), Task("b", _add, (10, 2)),
                Task("c", _add, (100,)), Task("d", _add, ())]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_keyed_by_task(self, jobs):
        stats = ScheduleStats()
        results = run_tasks(self._tasks(), jobs=jobs, stats=stats)
        assert results == {"a": 2, "b": 12, "c": 100, "d": 0}
        # submission follows declaration order on any worker count
        assert stats.order == ["a", "b", "c", "d"]
        assert stats.max_in_flight == jobs

    def test_serial_respects_declaration_order(self):
        stats = ScheduleStats()
        run_tasks(self._tasks(), jobs=1, stats=stats)
        assert stats.order == ["a", "b", "c", "d"]
        assert stats.executed == 4

    def test_on_start_fires_per_task(self):
        started = []
        run_tasks(self._tasks(), jobs=2, on_start=started.append)
        assert started == ["a", "b", "c", "d"]

    def test_duplicate_keys_rejected(self):
        ran = []
        with pytest.raises(ReproError, match="duplicate"):
            run_tasks([Task("ok", ran.append, ("x",)),
                       Task("a", _double, (1,)), Task("a", _double, (2,))])
        assert ran == []  # rejected before any task ran

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_error_propagates(self, jobs):
        tasks = [Task("ok", _double, (1,)), Task("bad", _boom)]
        with pytest.raises(ValueError, match="worker exploded"):
            run_tasks(tasks, jobs=jobs)

    def test_empty_schedule(self):
        assert run_tasks([], jobs=2) == {}

    def test_error_drains_running_siblings(self, tmp_path):
        """A task failure must not leave siblings running in the
        persistent pool: run_tasks waits for in-flight work before
        re-raising, so callers find quiet workers afterwards."""
        sentinel = tmp_path / "sibling.done"
        tasks = [Task("slow", _slow_sentinel, (str(sentinel),)),
                 Task("bad", _boom)]
        with pytest.raises(ValueError, match="worker exploded"):
            run_tasks(tasks, jobs=2)
        assert sentinel.exists(), \
            "in-flight sibling was abandoned mid-run"


class TestPool:
    def test_resolve_explicit(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) == available_cpus()

    def test_resolve_negative_rejected(self):
        with pytest.raises(ReproError, match="jobs"):
            resolve_jobs(-2)

    def test_resolve_negative_from_env_names_variable(self, monkeypatch):
        """Satellite bugfix: a negative count coming from $REPRO_JOBS must
        name the variable, so CI misconfiguration is diagnosable."""
        monkeypatch.setenv(JOBS_ENV_VAR, "-3")
        with pytest.raises(ReproError, match=JOBS_ENV_VAR):
            resolve_jobs(None)
        # ...while an explicit knob stays attributed to the caller.
        monkeypatch.delenv(JOBS_ENV_VAR)
        with pytest.raises(ReproError) as excinfo:
            resolve_jobs(-3)
        assert JOBS_ENV_VAR not in str(excinfo.value)

    def test_resolve_env_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        assert resolve_jobs(None) == available_cpus()

    def test_resolve_env_invalid(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "lots")
        with pytest.raises(ReproError, match=JOBS_ENV_VAR):
            resolve_jobs(None)

    def test_env_does_not_override_explicit_jobs(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(1) == 1

    def test_persistent_pool_reused_across_schedules(self):
        """Consecutive parallel schedules share the same warm worker
        processes instead of respawning them.  (Which worker runs which
        task is scheduler-dependent, so the invariant is the executor
        and its process set, not the per-schedule pid split.)"""
        tasks = [Task(i, _worker_pid, (i,)) for i in range(8)]
        first_pids = set(run_tasks(tasks, jobs=2).values())
        first_pool = pool_mod._pool
        workers = set(first_pool._processes)
        second_pids = set(run_tasks(tasks, jobs=2).values())
        assert pool_mod._pool is first_pool
        assert set(first_pool._processes) == workers
        assert (first_pids | second_pids) <= workers
        assert os.getpid() not in first_pids | second_pids

    def test_persistent_pool_resized_on_demand(self):
        tasks = [Task(i, _double, (i,)) for i in range(4)]
        run_tasks(tasks, jobs=2)
        two_worker_pool = pool_mod._pool
        run_tasks(tasks, jobs=3)
        assert pool_mod._pool is not two_worker_pool
        pool_mod.shutdown_pool()
        assert pool_mod._pool is None

    def test_scheduler_shares_the_persistent_pool(self):
        """A study at the same worker count runs on the pool an earlier
        schedule built."""
        run_tasks([Task(i, _double, (i,)) for i in range(6)], jobs=2)
        scheduler_pool = pool_mod._pool
        assert scheduler_pool is not None
        run_study(StudyConfig(benchmarks=("fir", "iir"), levels=(0,),
                              jobs=2))
        assert pool_mod._pool is scheduler_pool


class TestPickleBoundary:
    """Graph modules cross the pool boundary; compiled functions must
    not."""

    def test_compiled_cache_stripped_on_pickle(self):
        gm = build_module_graphs(compile_source(
            "int main() { return 41 + 1; }", "t"))
        generate_module(gm)
        assert gm._compiled[2] is not None
        clone = pickle.loads(pickle.dumps(gm))
        assert "_compiled" not in clone.__dict__
        # ...and the original keeps its cache.
        assert gm._compiled[2] is not None

    def test_benchmark_run_round_trips(self):
        spec = get_benchmark("fir")
        run = run_benchmark(spec, OptLevel.PIPELINED)
        clone = pickle.loads(pickle.dumps(run))
        assert clone.cycles == run.cycles
        assert clone.machine_result.globals_after == \
            run.machine_result.globals_after
        assert clone.profile == run.profile


class TestStudyConfigErrors:
    def test_unknown_benchmark_rejected_before_spawn(self):
        with pytest.raises(ReproError, match="unknown benchmark"):
            run_study(StudyConfig(benchmarks=("nope",), jobs=2))

    def test_bad_jobs_rejected(self):
        with pytest.raises(ReproError, match="jobs"):
            run_study(StudyConfig(benchmarks=("fir",), jobs=-1))

    def test_duplicate_benchmarks_and_levels_match_serial(self):
        # Duplicate names and levels collapse to one task per benchmark
        # and one run per level, on any worker count.
        config = dict(benchmarks=("fir", "fir", "iir"), levels=(1, 1, 0))
        serial = run_study(StudyConfig(jobs=1, **config))
        parallel = run_study(StudyConfig(jobs=2, **config))
        assert parallel.names() == serial.names() == ["fir", "iir"]
        for name in serial.names():
            for level in (0, 1):
                assert_runs_identical(
                    serial.benchmark(name).run_at(level),
                    parallel.benchmark(name).run_at(level))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_name_fails_before_any_compile(self, jobs, monkeypatch):
        """Every name is checked before the first task starts, so an
        unknown one costs no compile or simulation of the names before
        it.  Compiles are counted at ``compile_source``, which every
        copy of ``compile_benchmark`` calls."""
        import repro.suite.runner as runner_mod
        compiles = []
        real = runner_mod.compile_source

        def counting(*args, **kwargs):
            compiles.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "compile_source", counting)
        with pytest.raises(ReproError, match="unknown benchmark 'nope'"):
            run_study(StudyConfig(benchmarks=("fir", "nope"), jobs=jobs))
        assert compiles == []
        # ...and a repeated name is one task: one compile.
        run_study(StudyConfig(benchmarks=("fir", "fir"), levels=(0,),
                              jobs=1))
        assert compiles == ["fir"]


# -- many seeds, schedule shape, recovery, validation -------------------------------


def _crash_worker(_item):
    os._exit(13)  # simulate a worker process dying mid-task


class TestSeedSharding:
    """A many-seed study runs every seed in its benchmark's one task
    and stays bit-identical to ``jobs=1``."""

    SEEDS = tuple(range(6))
    CONFIG = dict(benchmarks=("fir", "sewha"), seeds=SEEDS)

    @pytest.fixture(scope="class")
    def serial(self):
        return run_study(StudyConfig(jobs=1, **self.CONFIG))

    @pytest.fixture(scope="class")
    def sharded(self):
        return run_study(StudyConfig(jobs=3, **self.CONFIG))

    def test_bit_identical_to_serial(self, serial, sharded):
        for name in self.CONFIG["benchmarks"]:
            for level in LEVELS:
                ra = serial.benchmark(name).run_at(level)
                rb = sharded.benchmark(name).run_at(level)
                assert ra.seeds == self.SEEDS == rb.seeds
                assert_runs_identical(ra, rb)
                assert ra.cycles_by_seed() == rb.cycles_by_seed()
                for sa, sb in zip(ra.seed_results, rb.seed_results):
                    assert sa.globals_after == sb.globals_after
                    assert sa.profile == sb.profile

    def test_rendered_tables_identical(self, serial, sharded):
        assert table2(sharded) == table2(serial)

    def test_progress_fires_once_per_cell(self):
        # the cell is the benchmark's task: one event, whatever the seeds
        seen = []
        run_study(StudyConfig(jobs=3, **self.CONFIG),
                  progress=lambda name, stage: seen.append((name, stage)))
        assert sorted(seen) == [(name, "levels 0,1,2")
                                for name in self.CONFIG["benchmarks"]]


class TestScheduleShape:
    """One dependency-free task per benchmark, on every path."""

    def test_same_schedule_for_any_jobs_and_seed_count(self):
        names = ["fir", "sewha", "iir"]
        for seeds in (None, (0, 1, 2, 3, 4)):
            for jobs in (1, 2, 3):
                stats = ScheduleStats()
                run_study(StudyConfig(benchmarks=tuple(names) + ("fir",),
                                      levels=(0, 1), seeds=seeds,
                                      jobs=jobs), stats=stats)
                assert stats.order == names
                assert stats.executed == len(names)

    def test_levels_share_the_frontend_compile(self, monkeypatch):
        """Every level of a benchmark reuses its task's one front-end
        compile."""
        import repro.exec.study as study_mod
        compiles = []
        real = study_mod.compile_benchmark

        def counting(spec):
            compiles.append(spec.name)
            return real(spec)

        monkeypatch.setattr(study_mod, "compile_benchmark", counting)
        run_study(StudyConfig(benchmarks=("fir", "iir"), jobs=1))
        assert compiles == ["fir", "iir"], \
            "three levels per benchmark must share one compile"


class TestBrokenPoolRecovery:
    """A worker crash mid-study discards the broken pool; the retried
    study starts on a fresh pool and still matches the serial result."""

    def test_crash_then_retry_matches_serial(self):
        from concurrent.futures.process import BrokenProcessPool

        # a schedule whose task kills its worker process outright
        with pytest.raises(BrokenProcessPool):
            run_tasks([Task("boom", _crash_worker, (0,))]
                      + [Task(i, _double, (i,)) for i in range(4)],
                      jobs=2)
        # the recovery path forgot the broken pool...
        assert pool_mod._pool is None
        # ...so the retried study builds a healthy one and is
        # indistinguishable from the serial run.
        config = dict(benchmarks=("fir", "iir"))
        retried = run_study(StudyConfig(jobs=2, **config))
        serial = run_study(StudyConfig(jobs=1, **config))
        assert pool_mod._pool is not None
        for name in serial.names():
            for level in LEVELS:
                assert_runs_identical(serial.benchmark(name).run_at(level),
                                      retried.benchmark(name).run_at(level))


class TestInputValidation:
    """Satellite fix: misconfiguration raises clearly, up front."""

    def test_invalid_engine_rejected_before_any_work(self, monkeypatch):
        import repro.exec.study as study_mod
        from repro.errors import SimulationError

        def exploding(*_a, **_k):
            raise AssertionError("must fail before compiling anything")

        monkeypatch.setattr(study_mod, "compile_benchmark", exploding)
        with pytest.raises(SimulationError, match="unknown engine"):
            run_study(StudyConfig(benchmarks=("fir",), engine="turbo"))

    def test_invalid_engine_rejected_in_run_benchmark(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="unknown engine"):
            run_benchmark(get_benchmark("fir"), OptLevel.NONE,
                          engine="turbo")

    def test_invalid_engine_rejected_in_explore(self):
        from repro.asip.explore import explore_designs
        from repro.errors import SimulationError
        spec = get_benchmark("sewha")
        with pytest.raises(SimulationError, match="unknown engine"):
            explore_designs(compile_benchmark(spec),
                            spec.generate_inputs(0), engine="turbo")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ReproError, match="StudyConfig.seeds is empty"):
            run_study(StudyConfig(benchmarks=("fir",), seeds=()))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ReproError, match="duplicate seed"):
            run_study(StudyConfig(benchmarks=("fir",), seeds=(0, 1, 0)))

    def test_run_benchmark_seed_validation(self):
        with pytest.raises(ReproError, match="seeds= is empty"):
            run_benchmark(get_benchmark("fir"), OptLevel.NONE, seeds=())
        with pytest.raises(ReproError, match="duplicate seed"):
            run_benchmark(get_benchmark("fir"), OptLevel.NONE,
                          seeds=(3, 3))

    def test_valid_seeds_pass_through(self):
        from repro.suite.runner import validate_seeds
        assert validate_seeds(None) is None
        assert validate_seeds((2, 0, 1)) == (2, 0, 1)
        assert validate_seeds([5]) == (5,)


class TestPoolResizeFailure:
    """Satellite fix: a failed resize must not leave a dead pool behind."""

    def test_failed_resize_resets_state_and_recovers(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        pool_mod.shutdown_pool()
        original = pool_mod.get_pool(1)
        assert pool_mod._pool_workers == 1

        def refuse(max_workers):
            raise RuntimeError("no workers for you")

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", refuse)
        with pytest.raises(RuntimeError, match="no workers"):
            pool_mod.get_pool(2)  # resize: old pool shut down, new fails
        # The stale (pool, count) pair must be gone — before the fix,
        # get_pool(1) handed the shut-down executor straight back.
        assert pool_mod._pool is None
        assert pool_mod._pool_workers == 0

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor",
                            ProcessPoolExecutor)
        replacement = pool_mod.get_pool(1)
        assert replacement is not original
        assert replacement.submit(int, "7").result() == 7  # actually alive
        pool_mod.shutdown_pool()


class TestOptimizedSkipsFrontend:
    """Satellite fix: run_benchmark(optimized=...) must not recompile the
    front end it will never use."""

    def test_frontend_skipped_when_optimized_supplied(self, monkeypatch):
        import repro.suite.runner as runner_mod
        from repro.opt.pipeline import optimize_module
        spec = get_benchmark("fir")
        module = compile_benchmark(spec)
        optimized = optimize_module(module, OptLevel(1), unroll_factor=2)

        def exploding(_spec):
            raise AssertionError(
                "optimized= callers must not pay a front-end compile")

        monkeypatch.setattr(runner_mod, "compile_benchmark", exploding)
        run = runner_mod.run_benchmark(spec, OptLevel(1),
                                       optimized=optimized)
        assert run.module is None  # no front end was compiled
        assert run.graph_module is optimized[0]

    def test_optimized_with_module_keeps_module(self):
        from repro.opt.pipeline import optimize_module
        spec = get_benchmark("fir")
        module = compile_benchmark(spec)
        optimized = optimize_module(module, OptLevel(1), unroll_factor=2)
        run = run_benchmark(spec, OptLevel(1), module=module,
                            optimized=optimized)
        assert run.module is module

    def test_optimized_run_matches_plain_run(self):
        from repro.opt.pipeline import optimize_module
        spec = get_benchmark("fir")
        module = compile_benchmark(spec)
        optimized = optimize_module(module, OptLevel(1), unroll_factor=2)
        via_optimized = run_benchmark(spec, OptLevel(1),
                                      optimized=optimized)
        plain = run_benchmark(spec, OptLevel(1))
        assert_runs_identical(via_optimized, plain)

"""The study executor: the benchmark × level matrix, one task per benchmark.

:func:`repro.feedback.study.run_study` lands here for every ``jobs``
value.  Each benchmark is one :class:`~repro.exec.scheduler.Task`
(:func:`_study_benchmark`): it compiles the front end once, then
optimizes and runs the levels in ascending order
(:func:`~repro.opt.pipeline.optimize_module`, then
:func:`~repro.suite.runner.run_benchmark`).  With ``verify`` on, the level-0 run is the semantic
oracle its levels 1/2 are checked against, on every seed of a multi-seed
study, inside the same task.  Different benchmarks run in parallel;
``jobs`` only sizes the pool (``jobs=1`` runs the tasks in this process,
in order).

The parent reassembles results in the requested benchmark order, never
completion order, which — together with the determinism of compiler and
simulator — makes ``jobs=N`` bit-identical to ``jobs=1`` (the
differential harness in ``tests/test_exec_equivalence.py`` pins this).

:func:`run_per_benchmark` is the entry point every executor shares
(:mod:`repro.exec.explore` runs exploration and frontier studies through
it too).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.exec.scheduler import Task, run_tasks
from repro.feedback.study import BenchmarkStudy, StudyResult
from repro.opt.pipeline import OptLevel, optimize_module
from repro.suite.registry import get_benchmark, selected_names
from repro.suite.runner import compile_benchmark, run_benchmark


def optimized_module(name: str, level: int, unroll_factor: int):
    """The benchmark's front end optimized at *level*:
    ``(graph_module, report)``."""
    return optimize_module(compile_benchmark(get_benchmark(name)),
                           OptLevel(level), unroll_factor=unroll_factor)


def run_per_benchmark(benchmarks: Optional[Tuple[str, ...]], fn: Callable,
                      args: Tuple, jobs: int,
                      progress: Optional[Callable[[str, str], None]],
                      stage: str, stats
                      ) -> Tuple[List[str], Dict[Hashable, object]]:
    """Run ``fn(name, *args)`` as one task per selected benchmark.

    *benchmarks* (``None`` = the whole suite) is resolved and
    de-duplicated before any task starts, so an unknown name fails
    before anything is compiled.  ``progress(name, stage)`` fires as
    each task starts; ``stats`` (a :class:`~repro.exec.scheduler.
    ScheduleStats`) collects scheduler accounting.  Returns ``(names,
    results by name)``.
    """
    names = selected_names(benchmarks)
    on_start = None
    if progress is not None:
        def on_start(name):
            progress(name, stage)
    results = run_tasks([Task(name, fn, (name,) + args) for name in names],
                        jobs=jobs, on_start=on_start, stats=stats)
    return names, results


def _study_benchmark(name: str, levels: Tuple[int, ...],
                     lengths: Tuple[int, ...], seed: int,
                     seeds: Optional[Tuple[int, ...]], unroll_factor: int,
                     engine: str, verify: bool) -> BenchmarkStudy:
    """One benchmark at every level of *levels* (ascending), level 0
    checking the rest when *verify* is on (module-level: runs in pool
    workers)."""
    spec = get_benchmark(name)
    module = compile_benchmark(spec)
    study = BenchmarkStudy(spec=spec)
    reference = None
    for level in levels:
        optimized = optimize_module(module, OptLevel(level),
                                    unroll_factor=unroll_factor)
        run = run_benchmark(
            spec, OptLevel(level), lengths=lengths, seed=seed, seeds=seeds,
            unroll_factor=unroll_factor, check_against=reference,
            module=module, engine=engine, optimized=optimized)
        if level == 0 and verify:
            reference = run.seed_results
        study.runs[OptLevel(level)] = run
    return study


def execute_study(config, jobs: int, progress=None, stats=None
                  ) -> StudyResult:
    """Run the matrix on *jobs* workers; see :func:`repro.feedback.study.
    run_study` for the public entry point."""
    levels = tuple(sorted(set(config.levels)))
    names, studies = run_per_benchmark(
        config.benchmarks, _study_benchmark,
        (levels, config.lengths, config.seed, config.seeds,
         config.unroll_factor, config.engine, config.verify),
        jobs, progress, "levels " + ",".join(map(str, levels)), stats)
    result = StudyResult(config=config)
    for name in names:
        result.benchmarks[name] = studies[name]
    return result

"""The study executor: the benchmark × level matrix, one task per benchmark.

:func:`repro.feedback.study.run_study` lands here for every ``jobs``
value.  Each benchmark is one :class:`~repro.exec.scheduler.Task`
(:func:`_study_benchmark`): it compiles the front end once, then
optimizes and runs the levels in ascending order
(:func:`optimized_levels`, which runs the optimizer prefix levels 1 and
2 share once, then :func:`~repro.suite.runner.run_benchmark`).  With
``verify`` on, the level-0 run is the semantic oracle its levels 1/2 are
checked against, on every seed of a multi-seed study, inside the same
task.  Different benchmarks run in parallel; ``jobs`` only sizes the
pool (``jobs=1`` runs the tasks in this process, in order).

The parent reassembles results in the requested benchmark order, never
completion order, which — together with the determinism of compiler and
simulator — makes ``jobs=N`` bit-identical to ``jobs=1`` (the
differential harness in ``tests/test_exec_equivalence.py`` pins this).

:func:`run_per_benchmark` is the entry point every executor shares
(:mod:`repro.exec.explore` runs exploration and frontier studies through
it too).  Exploration tasks take each benchmark's optimized program from
:func:`optimized_module`, which serves it from the disk tier when it can;
the study matrix optimizes its levels itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.cfg.graph import GraphModule
from repro.exec.scheduler import Task, run_tasks
from repro.feedback.study import BenchmarkStudy, StudyResult
from repro.ir.instr import _next_uid
from repro.opt.pipeline import (OptLevel, OptimizationReport,
                                optimize_module, optimize_prefix)
from repro.sim.diskcache import (OPTIMIZED_KIND, derived_key, get_cache,
                                 module_digest, optimized_key,
                                 verify_on_load)
from repro.suite.registry import get_benchmark, selected_names
from repro.suite.runner import compile_benchmark, run_benchmark


def _instructions(graph_module: GraphModule) -> list:
    """Every instruction of *graph_module*, chained ``parts`` included."""
    found = []
    stack = [ins for graph in graph_module.graphs.values()
             for node in graph.nodes.values()
             for ins in node.all_instructions()]
    while stack:
        ins = stack.pop()
        found.append(ins)
        stack.extend(getattr(ins, "parts", None) or ())
    return found


def optimized_pair(payload) -> tuple:
    """An optimized entry's ``(graph_module, report)``; raises
    :class:`TypeError` when *payload* is not such a pair."""
    if not (isinstance(payload, tuple) and len(payload) == 2
            and isinstance(payload[0], GraphModule)
            and isinstance(payload[1], OptimizationReport)):
        raise TypeError("not a (GraphModule, OptimizationReport) pair")
    return payload


def _adopt(payload) -> tuple:
    """A loaded optimized entry made this process's own.

    ``Instruction.uid`` is unique process-wide, but a stored module
    carries the uids of the process that optimized it.  Every uid and
    origin is mapped to a fresh :func:`~repro.ir.instr._next_uid`, in
    ascending old order, so relative uid order is kept and instructions
    made later still get larger uids.  The graphs' node and temp
    counters stay as stored.
    """
    graph_module, report = optimized_pair(payload)
    instrs = _instructions(graph_module)
    old = sorted({ins.uid for ins in instrs} | {ins.origin for ins in instrs})
    fresh = {uid: _next_uid() for uid in old}
    for ins in instrs:
        ins.uid = fresh[ins.uid]
        ins.origin = fresh[ins.origin]
    return graph_module, report


def _counters(graph_module: GraphModule) -> list:
    return [(name, repr(graph._ids), repr(graph._temp_ids))
            for name, graph in graph_module.graphs.items()]


def _holds(payload, fresh) -> bool:
    """Whether a loaded entry equals a fresh optimization: its module
    digest, its report and every graph's node and temp counters."""
    return (module_digest(payload[0]) == module_digest(fresh[0])
            and payload[1] == fresh[1]
            and _counters(payload[0]) == _counters(fresh[0]))


def optimized_module(name: str, level: int, unroll_factor: int):
    """The benchmark's front end optimized at *level*:
    ``(graph_module, report)``.

    The pair depends on neither the input seed nor the area budget, so
    it is kept on the disk tier under :func:`~repro.sim.diskcache.
    optimized_key`: a hit skips the front end and the optimizer, and
    its instructions get fresh uids (:func:`_adopt`).  A miss optimizes
    and stores the pair before anything runs it.  An entry that is not
    such a pair is counted unusable, recomputed and re-stored.  Under
    the verify-on-load gate (``REPRO_VERIFY``) the benchmark is
    optimized afresh, the entry is accepted only if it equals that
    (:func:`_holds`) and otherwise rejected and re-stored, and the fresh
    pair is returned either way.

    The returned module is stamped with a provenance key derived from
    the entry's key, with or without a disk tier (after the store, so
    entries never carry it); resequencing and chain selection derive
    their own stamps from it, and none of them is walked to key its
    compiled code.  The module must not be edited in place.
    """
    spec = get_benchmark(name)
    cache = get_cache()
    key = optimized_key(name, spec.source, level, unroll_factor)
    payload = None if cache is None else cache.load(OPTIMIZED_KIND, key)
    if payload is not None:
        try:
            payload = _adopt(payload)
        except Exception:
            cache.unusable(OPTIMIZED_KIND)
            payload = None
        else:
            if not verify_on_load():
                return _stamped(payload, key)
    fresh = optimize_module(compile_benchmark(spec), OptLevel(level),
                            unroll_factor=unroll_factor)
    if payload is not None and not _holds(payload, fresh):
        cache.reject(OPTIMIZED_KIND)
        payload = None
    if cache is not None and payload is None:
        cache.store(OPTIMIZED_KIND, key, fresh)
    return _stamped(fresh, key)


def _stamped(pair, key: str) -> tuple:
    pair[0].provenance_key = derived_key("optimized", key)
    return pair


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


def optimized_levels(module, levels: Tuple[int, ...], unroll_factor: int,
                     ) -> Iterator[Tuple[OptLevel, tuple]]:
    """``(level, optimize_module(...))`` for each of *levels* (ascending),
    one at a time, with levels 1 and 2 finished from one
    :func:`~repro.opt.pipeline.optimize_prefix`: the last of them
    compacts the prefix itself, an earlier one a copy, so level 2 never
    takes a copy."""
    prefix = None
    for level in map(OptLevel, levels):
        if level is OptLevel.NONE:
            yield level, optimize_module(module, level,
                                         unroll_factor=unroll_factor)
            continue
        if prefix is None:
            prefix = optimize_prefix(module, unroll_factor)
        yield level, optimize_module(
            module, level, unroll_factor=unroll_factor,
            prefix=prefix if level == levels[-1] else prefix.copy())


def _study_benchmark(name: str, levels: Tuple[int, ...],
                     lengths: Tuple[int, ...], seed: int,
                     seeds: Optional[Tuple[int, ...]], unroll_factor: int,
                     engine: str, verify: bool) -> BenchmarkStudy:
    """One benchmark at every level of *levels* (ascending), level 0
    checking the rest when *verify* is on (module-level: runs in pool
    workers).  Levels 1 and 2 are finished from one shared optimizer
    prefix (:func:`optimized_levels`)."""
    spec = get_benchmark(name)
    module = compile_benchmark(spec)
    study = BenchmarkStudy(spec=spec)
    reference = None
    for level, optimized in optimized_levels(module, levels, unroll_factor):
        run = run_benchmark(
            spec, level, lengths=lengths, seed=seed, seeds=seeds,
            unroll_factor=unroll_factor, check_against=reference,
            module=module, engine=engine, optimized=optimized)
        if level == 0 and verify:
            reference = run.seed_results
        study.runs[level] = run
    return study


def execute_study(config, jobs: int, progress=None, stats=None
                  ) -> StudyResult:
    """Run the matrix on *jobs* workers; see :func:`repro.feedback.study.
    run_study` for the public entry point."""
    # Every study task compiles: load the front end here, before a pool
    # forks, so workers inherit it instead of each importing it (see
    # :mod:`repro.exec.pool`).
    import repro.frontend
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

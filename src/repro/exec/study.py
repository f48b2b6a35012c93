"""The parallel study executor: the benchmark×level matrix on a pool.

``run_study(jobs=N)`` lands here for ``N > 1``.  The matrix is expressed
as one :class:`~repro.exec.scheduler.Task` per (benchmark, level) cell:

* every benchmark's **level-0** cell is independent and eligible
  immediately;
* with verification on, levels 1/2 of a benchmark depend on its level-0
  cell — the scheduler hands them level 0's per-seed machine results as
  the semantic-oracle reference the moment that cell completes, so other
  benchmarks' cells keep the pool busy in the meantime.

Two executor-level optimizations ride on top, both invisible in the
results:

* **level-shared front-end compiles** — every cell resolves its
  benchmark's front-end module through the per-worker memo
  (:func:`repro.exec.pool.worker_cached`), and cells of one benchmark
  carry that benchmark as their scheduler *affinity*, so the worker that
  compiled ``edge`` for level 0 typically runs its levels 1/2 too and
  pays the front end once — the same one-compile-per-benchmark sharing
  the serial loop has always had;
* **multi-seed sharding** — a cell whose ``seeds=`` batch is large
  enough (:data:`SEED_SHARD_MIN`) is split into contiguous seed shards
  executed as independent tasks, each verified against the matching
  shard of the level-0 oracle, and reassembled in seed order — so a
  many-seed study scales past one core per cell.

Workers re-derive everything from the benchmark *name* (the registry is
process-global), run the exact same :func:`~repro.suite.runner.
run_benchmark` the serial path runs, and ship the finished
:class:`~repro.suite.runner.BenchmarkRun` back.  The parent reassembles
results in registry order and seed order, never completion order, which
— together with the per-cell determinism of compiler and simulator — is
what makes ``jobs=N`` bit-identical to ``jobs=1`` (the differential
harness in ``tests/test_exec_equivalence.py`` pins this).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.ir.module import Module
from repro.opt.pipeline import OptLevel, optimize_module
from repro.exec.pool import next_epoch, sync_epoch, worker_cached
from repro.exec.scheduler import Task, run_tasks
from repro.sim.machine import MachineResult, run_module_batch
from repro.suite.registry import get_benchmark
from repro.suite.runner import (BenchmarkRun, compile_benchmark,
                                run_benchmark, verify_semantics)

#: Multi-seed cells with at least this many seeds are split into
#: per-worker shards; smaller batches stay whole (the per-shard
#: compile+optimize repeat would cost more than the parallelism buys).
SEED_SHARD_MIN = 4


def _frontend_module(name: str) -> Module:
    """The benchmark's front-end compile, memoized per process.

    The front end is a pure function of the benchmark source, so every
    cell of one benchmark — across levels, shards and studies — shares
    one compile per worker process, mirroring the serial loop's
    one-compile-per-benchmark structure.
    """
    return worker_cached(("frontend", name),
                         lambda: compile_benchmark(get_benchmark(name)))


def _optimized_cell(name: str, level: int, unroll_factor: int):
    """The cell's optimized ``(graph_module, report)``, memoized per
    process.

    Every task of one (benchmark, level) cell that lands on this worker
    — the primary run and every seed shard — shares one optimize pass,
    and the graph module it yields carries the engine's generated-code
    cache, so later tasks skip lowering and generation too.
    """
    return worker_cached(
        ("optimized", name, level, unroll_factor),
        lambda: optimize_module(_frontend_module(name), OptLevel(level),
                                unroll_factor=unroll_factor))


def _run_cell(name: str, level: int, lengths: Tuple[int, ...], seed: int,
              seeds: Optional[Tuple[int, ...]], unroll_factor: int,
              engine: str, epoch: Optional[int] = None,
              reference: Optional[Sequence] = None) -> BenchmarkRun:
    """One (benchmark, level) cell; module-level so workers can import it."""
    sync_epoch(epoch)
    return run_benchmark(
        get_benchmark(name), OptLevel(level),
        lengths=lengths, seed=seed, seeds=seeds,
        unroll_factor=unroll_factor, check_against=reference,
        module=_frontend_module(name), engine=engine,
        optimized=_optimized_cell(name, level, unroll_factor))


def _run_seed_shard(name: str, level: int, seeds: Tuple[int, ...],
                    unroll_factor: int, engine: str,
                    epoch: Optional[int] = None,
                    reference: Optional[Sequence] = None
                    ) -> Tuple[MachineResult, ...]:
    """One seed shard of a cell: simulate (and verify) *seeds* only.

    Detection and reporting consume the cell's primary seed, which lives
    in the primary task's full :func:`run_benchmark`; a shard needs just
    the optimized graph and the per-seed machine results, verified
    against the level-0 results for the same seeds.
    """
    sync_epoch(epoch)
    spec = get_benchmark(name)
    graph_module, _report = _optimized_cell(name, level, unroll_factor)
    results = run_module_batch(
        graph_module, [spec.generate_inputs(s) for s in seeds],
        engine=engine)
    if reference is not None:
        for res, ref in zip(results, reference):
            verify_semantics(spec, OptLevel(level), res, ref)
    return tuple(results)


def _oracle_of(run: BenchmarkRun):
    """The reference the serial path would pass to levels 1/2."""
    if len(run.seeds) > 1:
        return run.seed_results
    return run.machine_result


def shard_seeds(seeds: Optional[Tuple[int, ...]],
                jobs: int) -> List[Optional[Tuple[int, ...]]]:
    """Contiguous seed shards for one cell; ``[seeds]`` when unsharded.

    The first shard is the *primary* (it carries the cell's primary seed
    and feeds detection).  Sharding is deterministic in ``(seeds, jobs)``
    and never reorders seeds, so the reassembled results are
    bit-identical to the unsharded batch.
    """
    if seeds is None or jobs <= 1 or len(seeds) < SEED_SHARD_MIN:
        return [seeds]
    count = min(jobs, len(seeds))
    base, rem = divmod(len(seeds), count)
    shards: List[Optional[Tuple[int, ...]]] = []
    at = 0
    for i in range(count):
        size = base + (1 if i < rem else 0)
        shards.append(tuple(seeds[at:at + size]))
        at += size
    return shards


def build_schedule(config, names: Sequence[str], jobs: int = 1,
                   epoch: Optional[int] = None) -> List[Task]:
    """The task DAG for one study (importable for tests and benchmarks).

    Duplicate names/levels are collapsed: the serial loop re-runs such
    cells and keeps only the last (dict overwrite), and every cell is
    deterministic, so running each distinct cell once yields the
    identical result without duplicate task keys.  ``jobs`` only informs
    seed sharding — the returned schedule is valid on any worker count.
    ``epoch`` (see :func:`repro.exec.pool.sync_epoch`) bounds the
    per-worker memo to this study's derivations.
    """
    names = list(dict.fromkeys(names))
    levels = sorted(set(config.levels))
    shards = shard_seeds(config.seeds, jobs)
    oracle_level = levels[0] if config.verify and levels \
        and levels[0] == 0 else None
    tasks: List[Task] = []
    for name in names:
        for level in levels:
            deps: Tuple[Hashable, ...] = ()
            bind = None
            if oracle_level is not None and level != oracle_level:
                deps = ((name, oracle_level),)

                def bind(args, results, _dep=deps[0]):
                    return args + (_oracle_of(results[_dep]),)
            tasks.append(Task(
                key=(name, level), fn=_run_cell,
                args=(name, level, config.lengths, config.seed,
                      shards[0], config.unroll_factor, config.engine,
                      epoch),
                deps=deps, bind=bind, affinity=name))
            for j, shard in enumerate(shards[1:], start=1):
                sdeps: Tuple[Hashable, ...] = ()
                sbind = None
                if oracle_level is not None and level != oracle_level:
                    sdeps = ((name, oracle_level, j),)

                    def sbind(args, results, _dep=sdeps[0]):
                        return args + (results[_dep],)
                tasks.append(Task(
                    key=(name, level, j), fn=_run_seed_shard,
                    args=(name, level, shard, config.unroll_factor,
                          config.engine, epoch),
                    deps=sdeps, bind=sbind, affinity=name))
    return tasks


def _merge_shards(run: BenchmarkRun, config,
                  shards: List[Optional[Tuple[int, ...]]],
                  cells: Dict, name: str, level: int) -> BenchmarkRun:
    """Reassemble a sharded cell into the BenchmarkRun the serial path
    produces: full seed tuple, per-seed results in seed order; primary
    result, detection and reports come from the primary shard unchanged."""
    if len(shards) <= 1:
        return run
    seed_results = list(run.seed_results)
    for j in range(1, len(shards)):
        seed_results.extend(cells[(name, level, j)])
    return replace(run, seeds=tuple(config.seeds),
                   seed_results=tuple(seed_results))


def execute_study(config, jobs: int, progress=None, stats=None):
    """Run the matrix on *jobs* workers; see :func:`repro.feedback.study.
    run_study` for the public entry point.  ``stats`` (a
    :class:`~repro.exec.scheduler.ScheduleStats`) collects scheduler
    accounting — the serve daemon's status endpoint reads it."""
    from repro.feedback.study import BenchmarkStudy, StudyResult
    from repro.suite.registry import all_benchmarks

    names = (list(dict.fromkeys(config.benchmarks))
             if config.benchmarks is not None
             else [spec.name for spec in all_benchmarks()])
    for name in names:  # fail on unknown names before any worker spawns
        get_benchmark(name)
    on_start = None
    if progress is not None:
        def on_start(key):
            if len(key) == 2:  # shard tasks are internal to their cell
                progress(key[0], key[1])
    shards = shard_seeds(config.seeds, jobs)
    # One epoch per study: cells of this study share per-worker compiles,
    # workers kept warm from *earlier* studies drop theirs first.
    cells: Dict = run_tasks(
        build_schedule(config, names, jobs=jobs, epoch=next_epoch()),
        jobs=jobs, on_start=on_start, stats=stats)

    result = StudyResult(config=config)
    for name in names:
        study = BenchmarkStudy(spec=get_benchmark(name))
        for level in sorted(set(config.levels)):
            study.runs[OptLevel(level)] = _merge_shards(
                cells[(name, level)], config, shards, cells, name, level)
        result.benchmarks[name] = study
    return result

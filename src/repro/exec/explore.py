"""The suite-wide exploration executor: one task per benchmark.

:func:`repro.feedback.study.run_exploration_study` and
:func:`repro.feedback.study.run_frontier_study` land here.  The paper's
exploration loop (:func:`repro.asip.explore.explore_designs`) is
estimate-then-measure for *one* benchmark and *one* area budget; this
module runs every benchmark's whole exploration as **one task**, through
the same :func:`~repro.exec.study.run_per_benchmark` the study matrix
uses.  The task:

* optimizes the benchmark at the study level, generates each seed's
  inputs once, runs *one* simulation batch over every seed, detects
  sequences on the primary seed's profile, builds the budget-agnostic
  candidate pool and re-sequentializes.  The unchained single-issue base
  results are *derived* from that batch rather than simulated again:
  re-sequentialization preserves semantics (outputs are shared — and
  still independently guarded, on the primary seed, by the
  fused-vs-base check inside every evaluation), and the chain expansion
  recorded by
  :func:`~repro.asip.resequence.resequence_module_mapped` determines the
  sequential node counts, hence the exact single-issue cycle count, from
  the VLIW profile;
* lists the chain sets to measure: the union of every budget's finalist
  subsets, in first-seen order (re-derived with the same pure helpers
  the per-benchmark loop uses, :func:`~repro.asip.explore.
  rank_candidates` / :func:`~repro.asip.explore.select_finalists`), or
  the deduplicated breakpoint chain sets of one
  :func:`~repro.asip.explore.frontier_sweep`;
* measures that list on every seed against the derived base results,
  reusing the inputs the base batch ran on.  Chain sets that fuse the
  same program (:func:`~repro.asip.evaluate.distinct_programs`) are
  measured once, across every budget of the benchmark, and per-seed
  evaluations fold into one design point
  (:func:`~repro.asip.evaluate.merge_evaluations`).  Each distinct
  program is simulated and output-checked on the primary seed; the
  other seeds' evaluations are derived from their base results, and
  the primary seed's derivation must equal its simulation
  (:func:`~repro.asip.evaluate.evaluate_on_sequential_batch`).

Different benchmarks run in parallel; ``jobs`` only sizes the pool.
Results are reassembled in canonical (benchmark, budget) or (benchmark,
chain set) order, never completion order — which is what makes
``jobs=N`` bit-identical to ``jobs=1`` and both identical to running
``explore_designs`` per benchmark, pinned by
``tests/test_explore_study.py`` and ``tests/test_frontier.py``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.asip.cost import DEFAULT_COST_MODEL
from repro.asip.evaluate import (evaluate_on_sequential_batch,
                                 match_programs, merge_evaluations)
from repro.asip.explore import (DesignPoint, ExplorationResult, _isa_for,
                                candidate_pool, frontier_sweep,
                                rank_candidates, select_finalists)
from repro.asip.resequence import resequence_module_mapped
from repro.chaining.detect import detect_sequences
from repro.errors import SimulationError
from repro.exec.study import optimized_module, run_per_benchmark
from repro.opt.pipeline import OptLevel
from repro.sim.machine import MachineResult, run_module_batch
from repro.sim.profile import ProfileData
from repro.suite.registry import get_benchmark


def _derived_base_result(graph_result: MachineResult, mapping,
                         entry_name: str,
                         max_cycles: int = 200_000_000) -> MachineResult:
    """One seed's single-issue base result, derived from its VLIW run.

    Outputs and return value carry over unchanged (re-sequentialization
    preserves semantics; every evaluation's fused-vs-base check still
    guards this independently on the primary seed).  Node counts expand
    through the chain map — each sequential node executes exactly as
    often as the original node it was split from — giving the exact
    cycle count the sequential simulation would have measured.  Edge counts are left
    empty: nothing downstream of the base result reads them.
    """
    profile = ProfileData()
    for fn, counts in graph_result.profile.node_counts.items():
        chain_map = mapping.get(fn)
        if not chain_map:
            continue
        seq_counts: dict = {}
        for nid, count in counts.items():
            for snid in chain_map.get(nid, ()):
                seq_counts[snid] = count
        if seq_counts:
            profile.node_counts[fn] = seq_counts
    profile.call_counts = dict(graph_result.profile.call_counts)
    if profile.total_cycles() > max_cycles:
        raise SimulationError(
            f"cycle limit ({max_cycles}) exceeded; "
            f"infinite loop in {entry_name!r}?")
    return MachineResult(graph_result.return_value,
                         graph_result.globals_after, profile)


def _explore_base(name: str, level: int, lengths: Tuple[int, ...],
                  seeds: Tuple[int, ...], unroll_factor: int, engine: str):
    """One benchmark's budget-independent stage.

    Returns ``(candidate pool, total dynamic ops, re-sequentialized
    module, inputs, per-seed base-processor results)``: the pool every
    budget ranks, the benchmark's share of suite execution the
    cross-benchmark aggregation weights by, and the base-processor
    program with the inputs and base results every measurement runs
    against.  Profiling and sequence detection use the primary (first)
    seed, exactly like the study matrix and the per-benchmark loop; all
    seeds ride one batch of the optimized graph and the sequential base
    results are derived from it, one simulation per seed total.
    """
    spec = get_benchmark(name)
    graph_module, _report = optimized_module(name, level, unroll_factor)
    inputs_list = [spec.generate_inputs(s) for s in seeds]
    graph_results = run_module_batch(graph_module, inputs_list,
                                     engine=engine)
    detection = detect_sequences(graph_module, graph_results[0].profile,
                                 lengths)
    pool = candidate_pool(detection, DEFAULT_COST_MODEL)
    sequential, mapping = resequence_module_mapped(graph_module)
    base_results = tuple(
        _derived_base_result(result, mapping, graph_module.entry.name)
        for result in graph_results)
    return pool, detection.total_ops, sequential, inputs_list, base_results


def _measure_pattern_sets(sequential, pattern_sets: Sequence[Tuple],
                          inputs_list: Sequence[dict], base_results,
                          engine: str) -> Tuple:
    """Measure each chain set of *pattern_sets* on every input set.

    Returns one ``(isa, per-seed evaluations)`` pair per chain set, in
    the order given.  Chain sets that fuse the same program
    (:func:`~repro.asip.evaluate.distinct_programs`) are measured once,
    at the first of them, from the sites matched here; the rest take
    that evaluation with their own extension area.
    """
    cost = DEFAULT_COST_MODEL
    isas = [_isa_for(patterns, cost) for patterns in pattern_sets]
    measured: List[Tuple] = []
    firsts, sites = match_programs(sequential, isas)
    for i, (isa, first) in enumerate(zip(isas, firsts)):
        if first != i:
            evals = tuple(
                replace(evaluation, extension_area=isa.extension_area())
                for evaluation in measured[first][1])
        else:
            evals = evaluate_on_sequential_batch(
                sequential, isa, inputs_list, cost,
                base_results=base_results, engine=engine, sites=sites[i])
        measured.append((isa, evals))
    return tuple(measured)


def _budgets_to_measure(budgets: Tuple[int, ...], max_candidates: int,
                        measure_top: int, pool):
    """``(finalists, chain sets)``: per budget, its ranked candidates and
    finalist chain sets in the canonical finalist order; and every
    budget's finalist chain sets, deduplicated in first-seen order
    (budget order, then finalist order)."""
    finalists = []
    seen: Dict[Tuple, None] = {}
    for budget in budgets:
        candidates = rank_candidates(pool, budget, max_candidates)
        combos = select_finalists(candidates, budget, measure_top)
        pattern_sets = [tuple(candidates[i].pattern for i in combo)
                        for combo in combos]
        finalists.append((candidates, pattern_sets))
        seen.update(dict.fromkeys(pattern_sets))
    return finalists, list(seen)


def _frontier_to_measure(max_candidates: int, measure_top: int,
                         max_budget: Optional[int], pool):
    """``(frontier, chain sets)``: the pool's breakpoint sweep and its
    deduplicated finalist chain sets."""
    frontier = frontier_sweep(pool, max_candidates=max_candidates,
                              measure_top=measure_top,
                              max_budget=max_budget)
    return frontier, frontier.pattern_sets()


def _explore_benchmark(name: str, level: int, lengths: Tuple[int, ...],
                       seeds: Tuple[int, ...], unroll_factor: int,
                       engine: str, to_measure: Callable):
    """One benchmark's whole exploration (module-level: runs in pool
    workers).

    *to_measure* maps the candidate pool to ``(answer, chain sets)``
    (:func:`_budgets_to_measure` or :func:`_frontier_to_measure`); the
    answer is what the parent needs to place each design.
    Returns ``(answer, total dynamic ops, designs)``, where *designs*
    maps each chain set to its design point, evaluated on all *seeds*.
    """
    pool, total_ops, sequential, inputs_list, base_results = _explore_base(
        name, level, lengths, seeds, unroll_factor, engine)
    answer, pattern_sets = to_measure(pool)
    measured = _measure_pattern_sets(sequential, pattern_sets, inputs_list,
                                     base_results, engine)
    designs = {
        patterns: DesignPoint(isa=isa, evaluation=merge_evaluations(evals))
        for patterns, (isa, evals) in zip(pattern_sets, measured)}
    return answer, total_ops, designs


def _run(config, to_measure: Callable, jobs: int, progress, stage: str,
         stats):
    """One :func:`_explore_benchmark` task per benchmark; returns
    ``(names, results by name)``."""
    return run_per_benchmark(
        config.benchmarks, _explore_benchmark,
        (int(OptLevel(config.level)), config.lengths,
         config.seeds or (config.seed,), config.unroll_factor,
         config.engine, to_measure),
        jobs, progress, stage, stats)


def execute_exploration_study(config, jobs: int,
                              progress: Optional[
                                  Callable[[str, str], None]] = None,
                              stats=None):
    """Run the benchmark × budget matrix on *jobs* workers; see
    :func:`repro.feedback.study.run_exploration_study` for the public
    entry point (and :data:`repro.feedback.study.ProgressFn` for the
    progress-callback contract).  ``stats`` collects scheduler
    accounting (see :func:`repro.exec.study.run_per_benchmark`)."""
    from repro.feedback.study import ExplorationStudyResult

    budgets = list(dict.fromkeys(config.budgets))
    to_measure = partial(_budgets_to_measure, tuple(budgets),
                         config.max_candidates, config.measure_top)
    names, cells = _run(config, to_measure, jobs, progress,
                        "budgets " + ",".join(map(str, budgets)), stats)
    result = ExplorationStudyResult(config=config)
    for name in names:
        finalists, _total_ops, designs = cells[name]
        for budget, (candidates, pattern_sets) in zip(budgets, finalists):
            result.explorations[(name, budget)] = ExplorationResult(
                candidates=candidates,
                measured=[designs[patterns] for patterns in pattern_sets])
    return result


# -- the frontier sweep ------------------------------------------------------------
#
# A frontier study runs the same one task per benchmark; only the list of
# chain sets differs.  Instead of every budget's finalists, the task walks
# the candidate pool once (:func:`~repro.asip.explore.frontier_sweep`) and
# measures each distinct breakpoint chain set once, however many budgets
# it answers.  Every distinct *fused program* is simulated once: chain
# sets whose extra chains never match, or whose sites are already taken,
# fuse the same program as another set (320 chain sets, 104 programs, on
# the benchmark harness's 6-benchmark subset at seed 0).


def execute_frontier_study(config, jobs: int,
                           progress: Optional[
                               Callable[[str, str], None]] = None,
                           stats=None):
    """Run one frontier sweep + breakpoint measurements per benchmark
    on *jobs* workers; see :func:`repro.feedback.study.
    run_frontier_study` for the public entry point.  ``stats`` collects
    scheduler accounting (see :func:`repro.exec.study.
    run_per_benchmark`)."""
    from repro.feedback.study import BenchmarkFrontier, FrontierResult

    to_measure = partial(_frontier_to_measure, config.max_candidates,
                         config.measure_top, config.max_budget)
    names, cells = _run(config, to_measure, jobs, progress, "frontier",
                        stats)
    result = FrontierResult(config=config)
    for name in names:
        frontier, total_ops, designs = cells[name]
        result.benchmarks[name] = BenchmarkFrontier(
            name=name, frontier=frontier, designs=designs,
            total_ops=total_ops)
    return result

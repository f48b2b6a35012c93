"""Exploration-level performance benchmarks: suite-wide + cold-start.

``bench_engine.py`` watches single simulations and per-benchmark
exploration; this file watches the two paths PR 5 added:

* **the exploration study** — the full 12-benchmark design-space matrix
  behind ``python -m repro explore-study``, serial vs ``jobs=4`` on the
  persistent pool (per-benchmark base simulation gating its budget
  cells).  As with ``bench_study.py``, the parallel ratio is asserted
  nowhere — it depends on core count — but both shapes assert the full
  matrix and identical-by-construction results;
* **the compile-artifact disk cache** — cold-process module setup
  (lowering + code generation from scratch) vs the same setup served
  from a warm ``REPRO_CACHE`` directory, measured on the codegen tier
  where generation is most expensive.  Every timed iteration starts
  from a *fresh* front-end compile, exactly like a new process.

Run with ``--benchmark-json=bench_explore.json`` (as CI does) to emit
the same JSON shape as the other benchmark files; the headline numbers
are recorded in ``benchmarks/results/bench_explore.json``.
"""

import pytest

from repro.asip.explore import (Candidate, frontier_sweep,
                                select_finalists)
from repro.exec.pool import available_cpus
from repro.feedback.study import (ExplorationStudyConfig,
                                  FrontierStudyConfig,
                                  run_exploration_study,
                                  run_frontier_study)
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.machine import run_module
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark

BUDGETS = (1500, 2500)


def _assert_full_matrix(study):
    names = [spec.name for spec in all_benchmarks()]
    assert study.names() == names
    for name in names:
        for budget in BUDGETS:
            assert study.exploration(name, budget).measured


def test_exploration_study_serial(benchmark):
    """The serial baseline: the denominator of the parallel speedup."""
    study = benchmark.pedantic(
        run_exploration_study,
        args=(ExplorationStudyConfig(budgets=BUDGETS, jobs=1),),
        rounds=3, iterations=1)
    _assert_full_matrix(study)


def test_exploration_study_parallel(benchmark):
    """The matrix on four workers: base tasks fan out immediately, each
    benchmark's budget cells follow its base."""
    if available_cpus() < 2:
        pytest.skip("single-CPU machine: a process pool cannot win")
    study = benchmark.pedantic(
        run_exploration_study,
        args=(ExplorationStudyConfig(budgets=BUDGETS, jobs=4),),
        rounds=3, iterations=1)
    _assert_full_matrix(study)


# -- cold-start: the disk cache ----------------------------------------------------


SPEC = get_benchmark("edge")
INPUTS = SPEC.generate_inputs(0)


def _cold_setup(engine):
    """What a cold process pays before its first simulated cycle: front
    end + optimizer (always) and lowering/generation (unless the disk
    tier serves them)."""
    gm, _ = optimize_module(compile_benchmark(SPEC), OptLevel(1))
    return run_module(gm, INPUTS, engine=engine)


@pytest.fixture()
def cold_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    diskcache.reset_cache_state()
    yield
    diskcache.reset_cache_state()


@pytest.fixture()
def warm_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    diskcache.reset_cache_state()
    _cold_setup("codegen")  # prime both tiers
    yield
    diskcache.reset_cache_state()


def test_codegen_cold_start_no_cache(benchmark, cold_cache):
    """Cold start with an empty cache directory: full lowering +
    generation, plus the store."""
    def run():
        diskcache.get_cache().clear()
        return _cold_setup("codegen")
    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.cycles > 0


def test_codegen_cold_start_warm_cache(benchmark, warm_cache):
    """Cold start against a warm cache: lowering and generation served
    from disk (the ratio to the test above is the cold-start win)."""
    result = benchmark.pedantic(lambda: _cold_setup("codegen"),
                                rounds=5, iterations=1)
    assert result.cycles > 0
    cache = diskcache.get_cache()
    assert cache.hits["codegen"] >= 5  # every round was served
    assert not cache.corrupt


def test_exploration_study_warm_cache(benchmark, warm_cache):
    """A small exploration study with every compile artifact already on
    disk — the repeated-CLI-invocation shape ``explore-study`` users
    actually hit."""
    config = ExplorationStudyConfig(benchmarks=("edge", "sewha"),
                                    budgets=BUDGETS, engine="codegen",
                                    jobs=1)
    run_exploration_study(config)  # prime the fused finalists too
    study = benchmark.pedantic(run_exploration_study, args=(config,),
                               rounds=3, iterations=1)
    for name in ("edge", "sewha"):
        for budget in BUDGETS:
            assert study.exploration(name, budget).measured


# -- the frontier sweep vs a dense budget grid -------------------------------------
#
# The headline numbers of PR 7: a 64-point budget grid answered the old
# way (one rank+select+measure cycle per cell) vs one frontier sweep
# per benchmark (every distinct finalist chain set measured exactly
# once, every budget answered by bisection).  The ratio between the two
# tests below is the frontier win; the answers are asserted
# bit-identical inside the frontier leg.

DENSE_NAMES = ("sewha", "dft")
DENSE_BUDGETS = tuple(range(150, 150 + 64 * 38, 38))  # 64 budgets
DENSE_CEILING = DENSE_BUDGETS[-1]


def _cell_projection(result):
    return (
        tuple((c.pattern, c.frequency, c.area, c.cycles_saved)
              for c in result.candidates),
        tuple((tuple(p.labels()), p.evaluation.base_cycles,
               p.evaluation.chained_cycles, p.evaluation.chain_issues)
              for p in result.measured),
    )


def test_dense_grid_per_budget_study(benchmark):
    """64 budgets the old way: the denominator of the frontier win."""
    study = benchmark.pedantic(
        run_exploration_study,
        args=(ExplorationStudyConfig(benchmarks=DENSE_NAMES,
                                     budgets=DENSE_BUDGETS, jobs=1),),
        rounds=1, iterations=1)
    for name in DENSE_NAMES:
        assert study.exploration(name, DENSE_CEILING).measured


def test_dense_grid_frontier_sweep(benchmark):
    """The same 64 budgets from one sweep per benchmark, answered by
    bisection — and pinned bit-identical to the per-budget study."""
    grid = run_exploration_study(ExplorationStudyConfig(
        benchmarks=DENSE_NAMES, budgets=DENSE_BUDGETS, jobs=1))
    study = benchmark.pedantic(
        run_frontier_study,
        args=(FrontierStudyConfig(benchmarks=DENSE_NAMES,
                                  max_budget=DENSE_CEILING, jobs=1),),
        rounds=3, iterations=1)
    for name in DENSE_NAMES:
        for budget in DENSE_BUDGETS:
            assert _cell_projection(study.result_at(name, budget)) == \
                _cell_projection(grid.exploration(name, budget))


# -- the finalist enumeration ------------------------------------------------------


def _synthetic_candidates(count=12):
    """A ranked list shaped like a real pool: descending estimate,
    areas spread so the exhaustive enumeration sees many viable
    subsets (the worst case the per-call precompute was added for)."""
    return [
        Candidate(pattern=("load", "add", f"op{i}"),
                  frequency=30.0 - i, area=180 + 53 * i,
                  cycles_saved=2, cycles_accounted=1000 * (count - i))
        for i in range(count)
    ]


def test_select_finalists_enumeration(benchmark):
    """One budget's finalists from scratch: the 2^12-subset table
    (``finalist_table``) plus the budget filter (``pick_finalists``) —
    the per-cell cost ``explore-study`` pays.  The subset loops read
    the hoisted ``estimate``/``area`` lists, never the properties; this
    leg pins the O(2^n) property recompute from creeping back."""
    candidates = _synthetic_candidates()
    budget = sum(c.area for c in candidates) // 2
    combos = benchmark(select_finalists, candidates, budget, 4)
    assert combos
    for combo in combos:
        assert sum(candidates[i].area for i in combo) <= budget


def test_frontier_sweep_synthetic_pool(benchmark):
    """The whole sweep over the same 12-candidate pool: one ranked list
    and one subset table per constant-candidate interval, then only the
    budget filter at each of the interval's breakpoints."""
    pool = _synthetic_candidates()
    frontier = benchmark(frontier_sweep, pool, 8, 4)
    assert len(frontier.segments) > len(pool)
    for segment in frontier.segments:
        for combo in segment.combos:
            assert sum(pool[segment.candidate_indices[i]].area
                       for i in combo) <= segment.budget

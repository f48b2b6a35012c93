"""Differential harness for the incremental Pareto-frontier sweep.

``run_frontier_study`` must be indistinguishable from running the
per-budget ``run_exploration_study`` at every budget you could ever ask
for: one sweep per benchmark, answered by bisection, bit-identical to
re-ranking and re-measuring the cell — for every benchmark, every
optimization level, any ``jobs`` value, and any budget (a dense
64-point grid and seeded random fuzz, not just the budgets someone
thought to test).  Plus the cross-benchmark chain aggregation, the
schedule shape, config validation and the Markdown report.

The pure stages are checked against ``oracle_select_finalists``, a
frozen copy of the brute-force finalist selection the sweep's shared
subset table replaced, so the fuzz legs never compare the sweep with
itself.
"""

import itertools
import random
from typing import List, Sequence, Tuple

import pytest

from repro.asip.explore import (Candidate, candidate_pool,
                                frontier_sweep, rank_candidates,
                                select_finalists)
from repro.chaining.aggregate import (FrontierChain,
                                      combine_frontier_chains)
from repro.errors import AsipError, ReproError
from repro.feedback.study import (ExplorationStudyConfig,
                                  FrontierStudyConfig,
                                  run_exploration_study,
                                  run_frontier_study)
from repro.opt.pipeline import OptLevel
from repro.reporting.frontier import frontier_report
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark

from test_explore_study import exploration_projection

SUITE = [spec.name for spec in all_benchmarks()]
#: The pre-existing explore-study budget grid (tests/test_explore_study)
#: — every cell of it must fall out of the frontier unchanged.
GRID = (900, 1500, 2500)
#: Sweep ceiling covering the whole grid with headroom: the ceiling of
#: the shared ``frontier_serial`` fixture (tests/conftest.py).
CEILING = 2600


def frontier_projection(study):
    """Everything one frontier study *answers*, minus process-local
    objects: each benchmark's breakpoints plus the exact exploration
    answer at every one of them."""
    return {
        name: {
            "breakpoints": bench.breakpoints(),
            "total_ops": bench.total_ops,
            "answers": [exploration_projection(bench.result_at(b))
                        for b in bench.breakpoints()],
        }
        for name, bench in study.benchmarks.items()
    }


# The independent oracle: ``select_finalists`` exactly as it was before
# the sweep shared one subset table across an interval's budgets
# (brute force per call), kept verbatim apart from its name.
def oracle_select_finalists(candidates: Sequence[Candidate],
                            area_budget: int,
                            measure_top: int) -> List[Tuple[int, ...]]:
    """The candidate-index subsets worth simulating, in canonical order.

    Stage 1 of the paper loop: exhaustive enumeration under the additive
    estimate (exact for the estimator on these small candidate lists),
    keeping the ``measure_top`` best subsets plus the greedy
    value-density pick.  Deterministic in its inputs; the returned order
    is the order the measured design points appear in.
    """
    # ``estimate`` is an uncached property; the exhaustive enumeration
    # below reads it O(2^n) times per candidate, so both it and the area
    # are hoisted into plain lists once per call.
    areas = [c.area for c in candidates]
    estimates = [c.estimate for c in candidates]
    scored: List[Tuple[float, Tuple[int, ...]]] = []
    indices = range(len(candidates))
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(indices, r):
            area = sum(areas[i] for i in combo)
            if area > area_budget:
                continue
            estimate = sum(estimates[i] for i in combo)
            scored.append((estimate, combo))
    scored.sort(key=lambda item: (-item[0], item[1]))

    greedy: List[int] = []
    remaining = area_budget
    for i in sorted(indices, key=lambda i: -estimates[i] / max(1, areas[i])):
        if areas[i] <= remaining:
            greedy.append(i)
            remaining -= areas[i]
    finalists = {tuple(sorted(greedy))} if greedy else set()
    for _, combo in scored[:measure_top]:
        finalists.add(combo)
    return sorted(finalists)


def synthetic_pool(rng, size):
    """A pool built to tie: few distinct frequencies (0.1/0.2/0.3 sum
    with float rounding), cycles saved and areas, so many subsets share
    an estimate or an area and the order falls back to the combo."""
    return [
        Candidate(pattern=("add",) * rng.choice((1, 2)) + (f"p{i}",),
                  frequency=rng.choice((0.1, 0.2, 0.3, 1.0, 2.0)),
                  area=rng.choice((100, 100, 150, 200, 250)),
                  cycles_saved=rng.choice((1, 2)))
        for i in range(size)
    ]


@pytest.fixture(scope="module")
def frontier_parallel():
    return run_frontier_study(
        FrontierStudyConfig(max_budget=CEILING, jobs=2))


@pytest.fixture(scope="module")
def grid_study():
    return run_exploration_study(
        ExplorationStudyConfig(budgets=GRID, jobs=1))


class TestSuiteEquivalence:
    def test_covers_the_whole_suite(self, frontier_serial):
        assert frontier_serial.config.max_budget == CEILING
        assert frontier_serial.names() == SUITE
        for name in SUITE:
            bench = frontier_serial.frontier(name)
            assert bench.frontier.segments, name
            assert bench.total_ops > 0, name
            assert bench.designs, name

    def test_grid_cells_fall_out_of_the_frontier(self, frontier_serial,
                                                 grid_study):
        for name in SUITE:
            for budget in GRID:
                assert exploration_projection(
                    frontier_serial.result_at(name, budget)) == \
                    exploration_projection(
                        grid_study.exploration(name, budget)), \
                    (name, budget)

    def test_parallel_identical_to_serial(self, frontier_serial,
                                          frontier_parallel):
        assert frontier_projection(frontier_parallel) == \
            frontier_projection(frontier_serial)

    def test_below_first_breakpoint_nothing_fits(self, frontier_serial):
        for name in SUITE:
            result = frontier_serial.result_at(name, 1)
            assert result.candidates == []
            assert result.measured == []
            assert result.best is None

    def test_query_above_ceiling_raises(self, frontier_serial):
        with pytest.raises(AsipError, match="beyond this frontier's "
                                            "sweep limit"):
            frontier_serial.result_at("sewha", CEILING + 1)

    def test_unknown_benchmark_raises(self, frontier_serial):
        with pytest.raises(ReproError, match="no benchmark"):
            frontier_serial.frontier("nope")

    def test_every_benchmark_found_a_design(self, frontier_serial):
        # (Speedup is *not* monotone in budget: max_candidates
        # truncation can swap candidates as the budget grows — the
        # frontier must mirror that, not paper over it, so the grid
        # equivalence above is the real invariant.)
        for name in SUITE:
            best = frontier_serial.frontier(name).best_at(GRID[-1])
            assert best is not None, name
            assert best.speedup > 1.0, name
            assert best.area <= GRID[-1], name


class TestDenseGrid:
    """The acceptance bar: one sweep answers a >= 64-budget dense grid
    bit-identical to running the per-budget study at each point."""

    NAME = "sewha"
    BUDGETS = tuple(range(150, 150 + 64 * 38, 38))  # 64 budgets <= 2544

    def test_64_budgets_bit_identical(self, frontier_serial):
        assert len(self.BUDGETS) >= 64
        assert max(self.BUDGETS) <= CEILING
        grid = run_exploration_study(ExplorationStudyConfig(
            benchmarks=(self.NAME,), budgets=self.BUDGETS, jobs=1))
        for budget in self.BUDGETS:
            assert exploration_projection(
                frontier_serial.result_at(self.NAME, budget)) == \
                exploration_projection(
                    grid.exploration(self.NAME, budget)), budget

    def test_answers_constant_between_breakpoints(self, frontier_serial):
        bench = frontier_serial.frontier(self.NAME)
        breakpoints = bench.breakpoints()
        assert len(breakpoints) >= 2
        for lo, hi in zip(breakpoints, breakpoints[1:]):
            left = exploration_projection(bench.result_at(lo))
            probe = exploration_projection(bench.result_at(hi - 1))
            assert probe == left, (lo, hi)


class TestLevels:
    """Levels 0 and 2 over the suite (level 1 is the default and
    covered above); a tighter ceiling keeps the measurement load sane.

    The image benchmarks (flatten/smooth/edge) at level 2 have their own
    cases: both paths used to raise "load out of bounds" on them, because
    the resequencer's capture temps collided with level-2 renamed
    registers (fixed in ``ProgramGraph.continue_temps``)."""

    GRID = (900, 1500)
    CEIL = 1500
    LEVEL2_IMAGE = ("flatten", "smooth", "edge")

    def _assert_paths_agree(self, names, level):
        frontier = run_frontier_study(FrontierStudyConfig(
            benchmarks=names, level=level, max_budget=self.CEIL, jobs=1))
        grid = run_exploration_study(ExplorationStudyConfig(
            benchmarks=names, level=level, budgets=self.GRID, jobs=1))
        assert frontier.names() == list(names)
        for name in names:
            for budget in self.GRID:
                assert exploration_projection(
                    frontier.result_at(name, budget)) == \
                    exploration_projection(
                        grid.exploration(name, budget)), \
                    (level, name, budget)

    @pytest.mark.parametrize("level", (0, 2))
    def test_matches_grid_study(self, level):
        self._assert_paths_agree(
            tuple(n for n in SUITE
                  if level != 2 or n not in self.LEVEL2_IMAGE), level)

    @pytest.mark.parametrize("name", LEVEL2_IMAGE)
    def test_level2_image_kernels_agree_in_both_paths(self, name):
        self._assert_paths_agree((name,), 2)


class TestFuzzQueries:
    """Random budgets against brute-force re-ranking on real pools —
    the pure stages only, so hundreds of queries stay cheap."""

    NAMES = ("sewha", "dft", "edge")

    @pytest.fixture(scope="class")
    def pools(self):
        from repro.asip.cost import DEFAULT_COST_MODEL
        from repro.chaining.detect import detect_sequences
        from repro.opt.pipeline import optimize_module
        from repro.sim.machine import run_module
        pools = {}
        for name in self.NAMES:
            spec = get_benchmark(name)
            gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
            profile = run_module(gm, spec.generate_inputs(0)).profile
            detection = detect_sequences(gm, profile, (2, 3))
            pools[name] = candidate_pool(detection, DEFAULT_COST_MODEL)
        return pools

    def test_random_budgets_match_brute_force(self, pools):
        rng = random.Random(1234)
        for name, pool in pools.items():
            frontier = frontier_sweep(pool, max_candidates=8,
                                      measure_top=4)
            ceiling = sum(c.area for c in pool) + 500
            for _ in range(250):
                budget = rng.randint(1, ceiling)
                expected = rank_candidates(pool, budget, 8)
                assert frontier.candidates_at(budget) == expected, \
                    (name, budget)
                combos = oracle_select_finalists(expected, budget, 4)
                assert select_finalists(expected, budget, 4) == combos, \
                    (name, budget)
                segment = frontier.segment_at(budget)
                if segment is None:
                    assert not combos, (name, budget)
                else:
                    assert list(segment.combos) == combos, (name, budget)

    @pytest.mark.parametrize("measure_top", (0, 1, 4, 2 ** 8 + 1))
    def test_select_finalists_matches_oracle(self, pools, measure_top):
        rng = random.Random(measure_top)
        for name, pool in pools.items():
            ceiling = sum(c.area for c in pool)
            for _ in range(60):
                budget = rng.randint(1, ceiling)
                candidates = rank_candidates(pool, budget, 8)
                assert select_finalists(candidates, budget, measure_top) \
                    == oracle_select_finalists(candidates, budget,
                                               measure_top), (name, budget)

    def test_bounded_sweep_matches_unbounded_within_ceiling(self, pools):
        rng = random.Random(99)
        for name, pool in pools.items():
            unbounded = frontier_sweep(pool, max_candidates=8,
                                       measure_top=4)
            bounded = frontier_sweep(pool, max_candidates=8,
                                     measure_top=4, max_budget=1500)
            for _ in range(100):
                budget = rng.randint(1, 1500)
                assert bounded.segment_at(budget) == \
                    unbounded.segment_at(budget), (name, budget)

    def test_breakpoints_sorted_and_coalesced(self, pools):
        for pool in pools.values():
            frontier = frontier_sweep(pool, max_candidates=8,
                                      measure_top=4)
            breakpoints = frontier.breakpoints()
            assert breakpoints == sorted(set(breakpoints))
            # Coalescing worked: no two consecutive segments answer
            # identically.
            for a, b in zip(frontier.segments, frontier.segments[1:]):
                assert (a.candidate_indices, a.combos) != \
                    (b.candidate_indices, b.combos)


class TestSyntheticOracle:
    """The shared subset table against the oracle on pools built to
    tie: equal estimates and equal areas, where only the combo breaks
    the order, every ``measure_top`` regime and budgets below every
    candidate area."""

    SIZES = (1, 3, 6, 9)
    #: 0, 1, a typical value, and more than every subset of 9 candidates.
    MEASURE_TOPS = (0, 1, 4, 2 ** 9 + 1)

    def test_ties_exist(self):
        pool = synthetic_pool(random.Random(0), 9)
        estimates = [c.estimate for c in pool]
        areas = [c.area for c in pool]
        assert len(set(estimates)) < len(estimates)
        assert len(set(areas)) < len(areas)

    @pytest.mark.parametrize("measure_top", MEASURE_TOPS)
    def test_select_finalists_matches_oracle(self, measure_top):
        rng = random.Random(7 + measure_top)
        for size in self.SIZES:
            for _ in range(5):
                candidates = synthetic_pool(rng, size)
                total = sum(c.area for c in candidates)
                budgets = [rng.randint(0, total + 50) for _ in range(40)]
                budgets += [0, min(c.area for c in candidates) - 1, total]
                for budget in budgets:
                    assert select_finalists(candidates, budget,
                                            measure_top) == \
                        oracle_select_finalists(candidates, budget,
                                                measure_top), \
                        (size, budget)

    def test_budget_below_every_area_selects_nothing(self):
        rng = random.Random(3)
        for size in self.SIZES:
            candidates = synthetic_pool(rng, size)
            below = min(c.area for c in candidates) - 1
            for measure_top in self.MEASURE_TOPS:
                assert select_finalists(candidates, below, measure_top) \
                    == oracle_select_finalists(candidates, below,
                                               measure_top) == []

    @pytest.mark.parametrize("measure_top", MEASURE_TOPS)
    @pytest.mark.parametrize("max_candidates", (1, 5, 8))
    def test_sweep_matches_oracle(self, measure_top, max_candidates):
        rng = random.Random(1000 * max_candidates + measure_top)
        for _ in range(3):
            pool = synthetic_pool(rng, 9)
            frontier = frontier_sweep(pool, max_candidates=max_candidates,
                                      measure_top=measure_top)
            ceiling = sum(c.area for c in pool) + 100
            budgets = [rng.randint(0, ceiling) for _ in range(120)]
            budgets += frontier.breakpoints()
            for budget in budgets:
                expected = rank_candidates(pool, budget, max_candidates)
                assert frontier.candidates_at(budget) == expected, budget
                combos = oracle_select_finalists(expected, budget,
                                                 measure_top)
                segment = frontier.segment_at(budget)
                if segment is None:
                    assert not expected and not combos, budget
                else:
                    assert list(segment.combos) == combos, budget


class TestMultiSeed:
    SEEDS = (0, 1, 2, 3, 4)
    NAMES = ("sewha", "dft")
    CEIL = 1200

    def test_sharded_identical_to_serial(self):
        # 5 seeds on 3 workers: each benchmark's task batches them all.
        sharded = run_frontier_study(FrontierStudyConfig(
            benchmarks=self.NAMES, seeds=self.SEEDS,
            max_budget=self.CEIL, jobs=3))
        serial = run_frontier_study(FrontierStudyConfig(
            benchmarks=self.NAMES, seeds=self.SEEDS,
            max_budget=self.CEIL, jobs=1))
        assert frontier_projection(sharded) == \
            frontier_projection(serial)


class TestScheduleShape:
    def test_base_gates_frontier_gates_chunks(self):
        """The base stage, the sweep and every measurement of a
        benchmark share one task: one per distinct benchmark, keyed by
        name, in request order."""
        from repro.exec.scheduler import ScheduleStats
        stats = ScheduleStats()
        run_frontier_study(FrontierStudyConfig(
            benchmarks=("sewha", "dft", "sewha"), max_budget=1200,
            jobs=1), stats=stats)
        assert stats.order == ["sewha", "dft"]
        assert stats.executed == 2

    def test_same_schedule_for_any_jobs_and_seed_count(self):
        from dataclasses import replace
        from repro.exec.scheduler import ScheduleStats
        for seeds in (None, (0, 1, 2, 3, 4)):
            config = FrontierStudyConfig(benchmarks=("sewha", "dft"),
                                         seeds=seeds, max_budget=1200)
            for jobs in (1, 3):
                stats = ScheduleStats()
                run_frontier_study(replace(config, jobs=jobs), stats=stats)
                assert sorted(stats.order) == ["dft", "sewha"]
                assert stats.executed == 2

    def test_progress_reports_base_frontier_measure(self):
        events = []
        run_frontier_study(
            FrontierStudyConfig(benchmarks=("sewha",), max_budget=1200),
            progress=lambda name, stage: events.append((name, stage)))
        assert events == [("sewha", "frontier")]


class TestValidation:
    def test_non_positive_max_budget(self):
        for bad in (0, -5):
            with pytest.raises(ReproError, match="must be positive"):
                run_frontier_study(FrontierStudyConfig(max_budget=bad))

    def test_bad_level(self):
        with pytest.raises(ReproError, match="optimization level"):
            run_frontier_study(FrontierStudyConfig(level=7))

    def test_bad_engine(self):
        with pytest.raises(Exception, match="unknown engine"):
            run_frontier_study(FrontierStudyConfig(engine="turbo"))

    def test_duplicate_seeds(self):
        with pytest.raises(ReproError, match="duplicate"):
            run_frontier_study(FrontierStudyConfig(seeds=(1, 1)))

    def test_unknown_benchmark_fails_before_any_work(self):
        with pytest.raises(ReproError):
            run_frontier_study(FrontierStudyConfig(benchmarks=("nope",)))


class TestSuiteAggregation:
    """combine_frontier_chains in isolation, then on the real study."""

    ENTRIES = [
        ("a", 1000, {("add", "mul"): 300, ("load", "add"): 100},
         [("add", "mul")]),
        ("b", 3000, {("add", "mul"): 600, ("load", "add"): 900},
         [("add", "mul"), ("load", "add")]),
    ]

    def test_weighting_and_sorting(self):
        rows = combine_frontier_chains(self.ENTRIES)
        assert [r.name for r in rows] == [("add", "mul"), ("load", "add")]
        shared, solo = rows
        assert shared.frontier_count == 2
        assert shared.benchmarks == ["a", "b"]
        # Cycles sum over *all* entries, frontier member or not.
        assert shared.cycles_accounted == 900
        assert shared.suite_ops == 4000
        assert shared.combined_frequency == pytest.approx(22.5)
        # More-shared sorts first even at lower combined frequency.
        assert solo.combined_frequency == pytest.approx(25.0)
        assert solo.benchmarks == ["b"]

    def test_reason_strings(self):
        rows = combine_frontier_chains(self.ENTRIES)
        assert rows[0].reason(2) == ("on 2 of 2 frontiers (a, b); "
                                     "22.50% of suite dynamic ops")
        assert "on 1 of 2 frontiers (b)" in rows[1].reason(2)

    def test_chain_off_every_frontier_gets_no_row(self):
        entries = [("a", 100, {("add", "mul"): 50}, [])]
        assert combine_frontier_chains(entries) == []

    def test_zero_suite_ops(self):
        chain = FrontierChain(name=("add", "mul"))
        assert chain.combined_frequency == 0.0

    def test_real_study_suite_chains(self, frontier_serial):
        chains = frontier_serial.suite_chains()
        assert chains
        suite_ops = sum(b.total_ops
                        for b in frontier_serial.benchmarks.values())
        frontier_patterns = {
            name: set(bench.frontier_patterns())
            for name, bench in frontier_serial.benchmarks.items()}
        for chain in chains:
            assert 1 <= chain.frontier_count <= len(SUITE)
            assert chain.suite_ops == suite_ops
            for bench_name in chain.benchmarks:
                assert chain.name in frontier_patterns[bench_name]
        keys = [(-c.frontier_count, -c.combined_frequency, c.name)
                for c in chains]
        assert keys == sorted(keys)
        # Every frontier pattern of every benchmark made it into a row.
        rowed = {c.name for c in chains}
        for patterns in frontier_patterns.values():
            assert patterns <= rowed


class TestReport:
    def test_report_sections(self, frontier_serial):
        text = frontier_report(frontier_serial)
        assert text.startswith("# Frontier study report")
        assert "## Summary" in text
        assert "## Suite-wide chains" in text
        for name in SUITE:
            assert f"## {name}: frontier breakpoints" in text
        assert f"of {len(SUITE)} frontiers" in text
        assert "Sweep ceiling: 2600" in text

    def test_summary_rows_match_points(self, frontier_serial):
        rows = frontier_serial.summary_rows()
        assert rows
        for row in rows:
            best = frontier_serial.frontier(
                row["benchmark"]).best_at(row["budget"])
            assert best is not None
            assert row["speedup"] == best.speedup
            assert row["area"] == best.area
            assert row["chains"] == best.labels()

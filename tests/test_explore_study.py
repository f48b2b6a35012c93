"""Differential harness for the suite-wide exploration executor.

``run_exploration_study`` must be indistinguishable from running the
paper's per-benchmark ``explore_designs`` loop yourself: same candidate
rankings, same finalist subsets, same measured cycle counts and chain
issues, for every benchmark and every budget — and identical for any
``jobs`` value.  The harness pins all of it over the full 12-benchmark
suite (the acceptance bar for the executor), plus multi-seed
aggregation, the one-task-per-benchmark schedule and its cross-budget
program sharing, config validation and the warm-disk-cache fast path.
"""

from dataclasses import replace

import pytest

from repro.asip.evaluate import merge_evaluations
from repro.asip.explore import (candidate_pool, explore_designs,
                                rank_candidates, select_finalists)
from repro.asip.resequence import resequence_module
from repro.errors import ReproError
from repro.exec.study import optimized_module
from repro.feedback.study import (ExplorationStudyConfig,
                                  ExplorationStudyResult,
                                  run_exploration_study)
from repro.opt.pipeline import OptLevel
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark

SUITE = [spec.name for spec in all_benchmarks()]
BUDGET = 2500


def evaluation_projection(evaluation):
    return {
        "base_cycles": evaluation.base_cycles,
        "chained_cycles": evaluation.chained_cycles,
        "area": evaluation.extension_area,
        "chain_issues": evaluation.chain_issues,
        "sites": evaluation.selection.sites,
        "nodes_removed": evaluation.selection.nodes_removed,
    }


def exploration_projection(result):
    """Everything one exploration *means*, minus process-local objects."""
    return {
        "candidates": [(c.pattern, c.frequency, c.area, c.cycles_saved)
                       for c in result.candidates],
        "measured": [
            (tuple(point.labels()), evaluation_projection(point.evaluation))
            for point in result.measured],
        "best": None if result.best is None
        else tuple(result.best.labels()),
    }


def study_projection(study: ExplorationStudyResult):
    return {key: exploration_projection(exploration)
            for key, exploration in study.explorations.items()}


@pytest.fixture(scope="module")
def serial_study():
    return run_exploration_study(
        ExplorationStudyConfig(budgets=(BUDGET,), jobs=1))


@pytest.fixture(scope="module")
def parallel_study():
    return run_exploration_study(
        ExplorationStudyConfig(budgets=(BUDGET,), jobs=2))


class TestSuiteEquivalence:
    def test_covers_the_whole_suite(self, serial_study):
        assert serial_study.names() == SUITE
        assert serial_study.budgets() == [BUDGET]
        assert len(serial_study.explorations) == len(SUITE)

    def test_parallel_identical_to_serial(self, serial_study,
                                          parallel_study):
        assert study_projection(parallel_study) == \
            study_projection(serial_study)

    def test_matches_per_benchmark_explore_designs(self, serial_study):
        for name in SUITE:
            spec = get_benchmark(name)
            solo = explore_designs(
                compile_benchmark(spec), spec.generate_inputs(0),
                area_budget=BUDGET, level=OptLevel(1))
            assert exploration_projection(solo) == \
                exploration_projection(
                    serial_study.exploration(name, BUDGET)), name

    def test_every_benchmark_found_a_design(self, serial_study):
        for name in SUITE:
            best = serial_study.best(name, BUDGET)
            assert best is not None, name
            assert best.speedup > 1.0, name
            assert best.area <= BUDGET, name


class TestBudgetMatrix:
    CONFIG = dict(benchmarks=("sewha", "edge"), budgets=(900, 1500, 2500))

    @pytest.fixture(scope="class")
    def matrix(self):
        return run_exploration_study(ExplorationStudyConfig(**self.CONFIG))

    def test_budget_cells_match_standalone_runs(self, matrix):
        for name in self.CONFIG["benchmarks"]:
            spec = get_benchmark(name)
            module = compile_benchmark(spec)
            for budget in self.CONFIG["budgets"]:
                solo = explore_designs(module, spec.generate_inputs(0),
                                       area_budget=budget,
                                       level=OptLevel(1))
                assert exploration_projection(solo) == \
                    exploration_projection(matrix.exploration(name, budget))

    def test_larger_budgets_never_hurt(self, matrix):
        for name in self.CONFIG["benchmarks"]:
            speedups = [matrix.best(name, b).speedup
                        for b in self.CONFIG["budgets"]]
            assert speedups == sorted(speedups)

    def test_duplicate_names_and_budgets_collapse(self):
        study = run_exploration_study(ExplorationStudyConfig(
            benchmarks=("sewha", "sewha"), budgets=(1500, 1500)))
        assert list(study.explorations) == [("sewha", 1500)]

    def test_unknown_cell_raises(self, matrix):
        with pytest.raises(ReproError, match="no cell"):
            matrix.exploration("sewha", 31337)


class TestMultiSeed:
    SEEDS = (0, 1, 2, 3, 4)
    NAMES = ("sewha", "dft")

    @pytest.fixture(scope="class")
    def sharded(self):
        # 5 seeds on 3 workers: each benchmark's task batches them all.
        return run_exploration_study(ExplorationStudyConfig(
            benchmarks=self.NAMES, budgets=(BUDGET,), seeds=self.SEEDS,
            jobs=3))

    def test_sharded_identical_to_serial(self, sharded):
        serial = run_exploration_study(ExplorationStudyConfig(
            benchmarks=self.NAMES, budgets=(BUDGET,), seeds=self.SEEDS,
            jobs=1))
        assert study_projection(sharded) == study_projection(serial)

    def test_candidates_come_from_the_primary_seed(self, sharded):
        primary_only = run_exploration_study(ExplorationStudyConfig(
            benchmarks=("sewha",), budgets=(BUDGET,), seed=self.SEEDS[0]))
        assert exploration_projection(
            sharded.exploration("sewha", BUDGET))["candidates"] == \
            exploration_projection(
                primary_only.exploration("sewha", BUDGET))["candidates"]

    def test_aggregates_cycles_over_all_seeds(self, sharded):
        # The merged evaluation of each design point is exactly the
        # fold of independently-computed per-seed evaluations of the
        # same ISA: cycle totals sum, chain issues sum, area unchanged.
        from repro.asip.evaluate import evaluate_on_sequential
        from repro.opt.pipeline import optimize_module
        spec = get_benchmark("sewha")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        sequential = resequence_module(gm)
        merged = sharded.exploration("sewha", BUDGET)
        assert merged.measured
        for point in merged.measured:
            per_seed = tuple(evaluate_on_sequential(
                sequential, point.isa, spec.generate_inputs(s))
                for s in self.SEEDS)
            assert point.evaluation.base_cycles == \
                sum(e.base_cycles for e in per_seed)
            assert point.evaluation.chained_cycles == \
                sum(e.chained_cycles for e in per_seed)
            assert evaluation_projection(point.evaluation) == \
                evaluation_projection(merge_evaluations(per_seed))


class TestScheduleShape:
    def test_base_gates_budget_cells(self):
        """A benchmark's base and every budget cell share one task: one
        task per distinct benchmark, keyed by name, in request order."""
        from repro.exec.scheduler import ScheduleStats
        stats = ScheduleStats()
        run_exploration_study(ExplorationStudyConfig(
            benchmarks=("sewha", "dft", "sewha"), budgets=(1500, 2500),
            jobs=1), stats=stats)
        assert stats.order == ["sewha", "dft"]
        assert stats.executed == 2

    def test_same_schedule_for_any_jobs_and_seed_count(self):
        from repro.exec.scheduler import ScheduleStats
        for seeds in (None, (0, 1, 2, 3, 4)):
            config = ExplorationStudyConfig(benchmarks=("sewha", "dft"),
                                            budgets=(1500,), seeds=seeds)
            for jobs in (1, 2):
                stats = ScheduleStats()
                run_exploration_study(replace(config, jobs=jobs),
                                      stats=stats)
                assert sorted(stats.order) == ["dft", "sewha"]
                assert stats.executed == 2

    def test_progress_reports_base_then_budgets(self):
        events = []
        run_exploration_study(
            ExplorationStudyConfig(benchmarks=("sewha",),
                                   budgets=(1500, 2500)),
            progress=lambda name, stage: events.append((name, stage)))
        assert events == [("sewha", "budgets 1500,2500")]


class TestCrossBudgetDedup:
    """One task per benchmark measures every budget's finalists at once,
    so a fused program two budgets share is simulated once."""

    SUBSET = ("iir", "smooth", "sewha", "feowf", "flatten", "dft")
    BUDGETS = (1000, 2500, 5000)
    SEEDS = tuple(range(8))

    def test_one_simulation_per_distinct_program(self, monkeypatch):
        from repro.asip import evaluate as evaluate_mod
        from repro.asip.select import ChainMatcher, site_key
        from repro.exec import explore as explore_mod
        calls = []
        real = explore_mod.evaluate_on_sequential_batch

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(explore_mod, "evaluate_on_sequential_batch",
                            counting)
        study = run_exploration_study(ExplorationStudyConfig(
            benchmarks=self.SUBSET, budgets=self.BUDGETS, seeds=self.SEEDS,
            jobs=1))

        sequentials = {
            name: resequence_module(optimized_module(name, 1, 2)[0])
            for name in self.SUBSET}
        programs = 0
        for name in self.SUBSET:
            matcher = ChainMatcher(sequentials[name])
            programs += len({
                site_key(matcher.match(point.isa))
                for budget in self.BUDGETS
                for point in study.exploration(name, budget).measured})
        # Per-(benchmark, budget) dedup simulated 49 programs here.
        assert len(calls) == programs == 37

        # Every cell still answers what the per-benchmark loop does:
        # the primary seed's candidates and finalists, each measured on
        # its own (a real base simulation, no sharing) over all seeds.
        for name in self.SUBSET:
            spec = get_benchmark(name)
            module = compile_benchmark(spec)
            sequential = sequentials[name]
            inputs_list = [spec.generate_inputs(s) for s in self.SEEDS]
            for budget in self.BUDGETS:
                solo = explore_designs(module, spec.generate_inputs(0),
                                       area_budget=budget,
                                       level=OptLevel(1))
                cell = study.exploration(name, budget)
                assert exploration_projection(solo)["candidates"] == \
                    exploration_projection(cell)["candidates"]
                assert [p.labels() for p in solo.measured] == \
                    [p.labels() for p in cell.measured]
                for point in cell.measured:
                    alone = merge_evaluations(
                        evaluate_mod.evaluate_on_sequential_batch(
                            sequential, point.isa, inputs_list))
                    assert evaluation_projection(point.evaluation) == \
                        evaluation_projection(alone), (name, budget)


class TestSharedInputs:
    """Each benchmark's task generates its seeds' inputs once and hands
    the same dicts to the base batch and to every fused batch, so a
    simulation must never write to its inputs."""

    SEEDS = (0, 1)

    @pytest.mark.parametrize("level", [0, 1])
    def test_batch_leaves_inputs_unchanged(self, level):
        from repro.opt.pipeline import optimize_module
        from repro.sim.machine import run_module_batch
        for spec in all_benchmarks():
            gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
            inputs_list = [spec.generate_inputs(s) for s in self.SEEDS]
            for module in (gm, resequence_module(gm)):
                run_module_batch(module, inputs_list)
                assert inputs_list == [spec.generate_inputs(s)
                                       for s in self.SEEDS], \
                    (spec.name, level)


class TestStageHelpers:
    """The pure stages explore_designs and the executor share."""

    @pytest.fixture(scope="class")
    def pool(self):
        from repro.asip.cost import DEFAULT_COST_MODEL
        from repro.chaining.detect import detect_sequences
        from repro.opt.pipeline import optimize_module
        from repro.sim.machine import run_module
        spec = get_benchmark("sewha")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        profile = run_module(gm, spec.generate_inputs(0)).profile
        detection = detect_sequences(gm, profile, (2, 3))
        return candidate_pool(detection, DEFAULT_COST_MODEL)

    def test_pool_is_budget_agnostic(self, pool):
        assert pool  # sewha always has chainable sequences
        assert all(c.cycles_saved > 0 and c.frequency > 0 for c in pool)

    def test_rank_filters_by_area_and_truncates(self, pool):
        everything = rank_candidates(pool, 10 ** 9, max_candidates=1000)
        assert len(everything) == len(pool)
        estimates = [c.estimate for c in everything]
        assert estimates == sorted(estimates, reverse=True)
        tiny = rank_candidates(pool, 600, max_candidates=8)
        assert all(c.area <= 600 for c in tiny)
        assert len(rank_candidates(pool, 10 ** 9, max_candidates=3)) == 3

    def test_finalists_under_budget_and_canonical(self, pool):
        candidates = rank_candidates(pool, 2500, max_candidates=8)
        combos = select_finalists(candidates, 2500, measure_top=4)
        assert combos == sorted(combos)
        assert 1 <= len(combos) <= 5
        for combo in combos:
            assert sum(candidates[i].area for i in combo) <= 2500

    def test_no_candidates_no_finalists(self):
        assert select_finalists([], 2500, measure_top=4) == []


class TestValidation:
    def test_empty_budgets(self):
        with pytest.raises(ReproError, match="budgets is empty"):
            run_exploration_study(ExplorationStudyConfig(budgets=()))

    def test_non_positive_budget(self):
        with pytest.raises(ReproError, match="must be positive"):
            run_exploration_study(ExplorationStudyConfig(budgets=(2500, 0)))

    def test_bad_level(self):
        with pytest.raises(ReproError, match="optimization level"):
            run_exploration_study(ExplorationStudyConfig(level=7))

    def test_bad_engine(self):
        with pytest.raises(Exception, match="unknown engine"):
            run_exploration_study(ExplorationStudyConfig(engine="turbo"))

    def test_duplicate_seeds(self):
        with pytest.raises(ReproError, match="duplicate"):
            run_exploration_study(
                ExplorationStudyConfig(seeds=(1, 1)))

    def test_unknown_benchmark_fails_before_any_work(self):
        with pytest.raises(ReproError):
            run_exploration_study(
                ExplorationStudyConfig(benchmarks=("nope",)))


class TestDiskCacheIntegration:
    def test_warm_cache_exploration_identical_and_served(self, tmp_path,
                                                         monkeypatch):
        from repro.sim import diskcache
        config = ExplorationStudyConfig(benchmarks=("sewha",),
                                        budgets=(1500,), engine="codegen",
                                        jobs=1)  # counters live in-process
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        cold = run_exploration_study(config)
        cache = diskcache.get_cache()
        assert cache.stores["codegen"] > 0
        stores_after_cold = cache.stores["codegen"]
        warm = run_exploration_study(config)
        assert study_projection(warm) == study_projection(cold)
        # Every module of the warm pass was served from disk: codegen
        # entries were hit, and nothing new needed storing.
        assert cache.hits["codegen"] >= stores_after_cold
        assert cache.stores["codegen"] == stores_after_cold
        diskcache.reset_cache_state()


class TestDistinctPrograms:
    """Chain sets that fuse the same program share one measurement.

    Every frontier design of the benchmark harness's 6-benchmark subset
    at seed 0: an equal site key must mean an equal fused program, and
    the measurement kernel (which simulates each distinct program once)
    must answer exactly what measuring every design on its own does."""

    SUBSET = ("iir", "smooth", "sewha", "feowf", "flatten", "dft")
    LEVEL = 1

    @pytest.fixture(scope="class")
    def frontier_work(self):
        from repro.asip.explore import _isa_for, frontier_sweep
        from repro.asip.cost import DEFAULT_COST_MODEL
        from repro.exec.explore import _explore_base
        work = {}
        for name in self.SUBSET:
            pool, _total_ops, sequential, _inputs, base_results = \
                _explore_base(name, self.LEVEL, (2, 3), (0,), 2, "codegen")
            pattern_sets = frontier_sweep(pool).pattern_sets()
            isas = [_isa_for(patterns, DEFAULT_COST_MODEL)
                    for patterns in pattern_sets]
            work[name] = (pattern_sets, isas, sequential, base_results)
        return work

    def test_equal_site_key_means_equal_program(self, frontier_work):
        from repro.asip.evaluate import distinct_programs
        from repro.asip.select import (ChainMatcher, select_chains,
                                       site_key)
        from repro.sim.diskcache import module_digest
        designs = programs = 0
        for name, (_sets, isas, sequential, _base) in frontier_work.items():
            digest_of = {}
            for isa in isas:
                key = site_key(ChainMatcher(sequential).match(isa))
                fused, _stats = select_chains(sequential, isa)
                assert digest_of.setdefault(key, module_digest(fused)) \
                    == module_digest(fused), (name, isa)
            firsts = distinct_programs(sequential, isas)
            assert len(set(firsts)) == len(digest_of), name
            designs += len(isas)
            programs += len(digest_of)
        # Two thirds of the frontier's chain sets repeat a program.
        assert (designs, programs) == (320, 104)

    def test_kernel_matches_per_design_evaluation(self, frontier_work):
        from repro.asip.evaluate import evaluate_on_sequential
        from repro.exec.explore import _measure_pattern_sets
        for name, (sets, isas, sequential, base) in frontier_work.items():
            spec = get_benchmark(name)
            inputs = spec.generate_inputs(0)
            measured = _measure_pattern_sets(sequential, sets, [inputs],
                                             base, "codegen")
            assert len(measured) == len(isas), name
            for (isa, (evaluation,)), expected_isa in zip(measured, isas):
                assert isa == expected_isa, name
                assert evaluation == evaluate_on_sequential(
                    sequential, isa, inputs, base_result=base[0]), \
                    (name, isa)

    def test_never_matching_chain_keeps_own_area(self, frontier_work):
        """A chain set plus a chain that never matches fuses the same
        program: one simulation, two areas — and the batched multi-seed
        kernel path shares the same way."""
        from repro.asip.evaluate import (distinct_programs,
                                         evaluate_on_sequential_batch)
        from repro.asip.explore import _isa_for
        from repro.asip.cost import DEFAULT_COST_MODEL
        from repro.asip.resequence import resequence_module_mapped
        from repro.exec.explore import (_derived_base_result,
                                        _measure_pattern_sets)
        from repro.sim.machine import run_module_batch
        name = "sewha"
        sets, _isas, _sequential, _base = frontier_work[name]
        graph_module, _ = optimized_module(name, self.LEVEL, 2)
        sequential, mapping = resequence_module_mapped(graph_module)
        never = ("divide", "divide")
        assert all(never not in patterns for patterns in sets)
        pair = [sets[0], sets[0] + (never,)]
        isas = [_isa_for(patterns, DEFAULT_COST_MODEL) for patterns in pair]
        assert distinct_programs(sequential, isas) == [0, 0]
        assert isas[0].extension_area() < isas[1].extension_area()

        seeds = (0, 1)
        spec = get_benchmark(name)
        inputs_list = [spec.generate_inputs(s) for s in seeds]
        base = tuple(
            _derived_base_result(result, mapping, "main")
            for result in run_module_batch(graph_module, inputs_list))
        measured = _measure_pattern_sets(sequential, pair, inputs_list,
                                         base, "codegen")
        for (isa, evals), expected_isa in zip(measured, isas):
            assert evals == evaluate_on_sequential_batch(
                sequential, expected_isa, inputs_list, base_results=base)
            assert all(e.extension_area == expected_isa.extension_area()
                       for e in evals)
        first, second = (evals for _isa, evals in measured)
        assert first[0].selection.total_sites > 0
        assert [e.chained_cycles for e in first] \
            == [e.chained_cycles for e in second]

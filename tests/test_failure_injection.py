"""Failure-injection tests: the safety nets must actually catch breakage.

A reproduction that silently mis-optimizes would still produce plausible
frequency tables; these tests corrupt the pipeline on purpose and assert
that the semantic oracles (simulator comparison, verifier, evaluator)
refuse to accept the result.
"""

import pytest

from repro.cfg.build import build_module_graphs
from repro.errors import AsipError, IRError, OptimizationError
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import Constant, VirtualReg
from repro.ir.verify import verify_module
from repro.opt.pipeline import OptLevel
from repro.sim.machine import run_module
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark, run_benchmark

SRC = """
int x[8];
int y[8];
int main() {
    int i;
    for (i = 0; i < 8; i++) { y[i] = x[i] * 3 + 1; }
    return y[7];
}
"""

INPUTS = {"x": [2, 4, 6, 8, 10, 12, 14, 16]}


def _graphs():
    return build_module_graphs(compile_source(SRC, "t"))


def _diverge_on(monkeypatch, pattern):
    """Make every simulation of a fused program that contains a *pattern*
    chain report a wrong return value, as a broken selector would."""
    from repro.asip import evaluate as evaluate_mod
    from repro.asip.select import FusedInstruction
    real_batch = evaluate_mod.run_module_batch

    def diverging_batch(module, *args, **kwargs):
        results = real_batch(module, *args, **kwargs)
        fused = {tuple(ins.chain.pattern)
                 for graph in module.graphs.values()
                 for node in graph.nodes.values() for ins in node.ops
                 if isinstance(ins, FusedInstruction)}
        if pattern in fused:
            for result in results:
                result.return_value = (result.return_value or 0) + 1
        return results

    monkeypatch.setattr(evaluate_mod, "run_module_batch", diverging_batch)


class TestRunnerOracle:
    def test_runner_rejects_diverging_run(self):
        spec = get_benchmark("sewha")
        module = compile_benchmark(spec)
        reference = run_benchmark(spec, OptLevel.NONE, module=module,
                                  lengths=(2,))
        # Corrupt the reference so the level-1 check must fire.
        reference.machine_result.globals_after["y"][0] += 1
        with pytest.raises(OptimizationError):
            run_benchmark(spec, OptLevel.PIPELINED, module=module,
                          lengths=(2,),
                          check_against=reference.machine_result)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverging_level_fails_the_study(self, monkeypatch, jobs):
        """A level-1 program whose outputs diverge from level 0's must
        raise out of ``run_study``: the oracle check runs inside each
        benchmark's task — in this process at ``jobs=1`` and in a pool
        worker at ``jobs=2``."""
        import repro.exec.study as study_mod
        import repro.suite.runner as runner_mod
        from repro.exec import pool as pool_mod
        from repro.feedback.study import StudyConfig, run_study
        real_optimize = study_mod.optimize_module
        real_run = runner_mod.run_module_batch
        broken = set()  # ids of the level-1 graph modules

        def optimize(module, level, **kwargs):
            graph_module, report = real_optimize(module, level, **kwargs)
            if OptLevel(level) == OptLevel(1):
                broken.add(id(graph_module))
            return graph_module, report

        def run(graph_module, inputs_list, **kwargs):
            results = real_run(graph_module, inputs_list, **kwargs)
            if id(graph_module) in broken:
                for result in results:
                    result.return_value = (result.return_value or 0) + 1
            return results

        monkeypatch.setattr(study_mod, "optimize_module", optimize)
        monkeypatch.setattr(runner_mod, "run_module_batch", run)
        # Workers fork from this process, so only a pool started after
        # the patch runs the diverging simulator.
        pool_mod.shutdown_pool()
        try:
            with pytest.raises(OptimizationError, match="level-1"):
                run_study(StudyConfig(benchmarks=("sewha", "dft"),
                                      jobs=jobs))
        finally:
            pool_mod.shutdown_pool()


    def test_verify_flag_gates_the_level_zero_oracle(self, monkeypatch):
        """A level-1 run whose output globals are corrupted must raise
        out of ``run_study`` with ``verify=True``, and pass unchecked
        with ``verify=False``: the flag decides whether level 0 is the
        oracle of the later levels."""
        import repro.exec.study as study_mod
        import repro.suite.runner as runner_mod
        from repro.feedback.study import StudyConfig, run_study
        real_benchmark = study_mod.run_benchmark
        real_run = runner_mod.run_module_batch

        def corrupted(graph_module, inputs_list, **kwargs):
            results = real_run(graph_module, inputs_list, **kwargs)
            for result in results:
                result.globals_after["y"][0] += 1
            return results

        def run_benchmark(spec, level, **kwargs):
            if OptLevel(level) != OptLevel(1):
                return real_benchmark(spec, level, **kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(runner_mod, "run_module_batch", corrupted)
                return real_benchmark(spec, level, **kwargs)

        monkeypatch.setattr(study_mod, "run_benchmark", run_benchmark)
        config = StudyConfig(benchmarks=("sewha",), levels=(0, 1), jobs=1)
        with pytest.raises(OptimizationError, match="level-1"):
            run_study(config)
        study = run_study(StudyConfig(benchmarks=("sewha",), levels=(0, 1),
                                      jobs=1, verify=False))
        level0, level1 = (study.benchmark("sewha").run_at(level)
                          for level in (0, 1))
        assert level1.machine_result.globals_after["y"][0] == \
            level0.machine_result.globals_after["y"][0] + 1


class TestSimulatorAsOracle:
    def test_illegal_hoist_changes_outputs(self):
        """Manually perform a move that violates the true-dependence rule
        and show the simulator-comparison oracle notices."""
        gm = _graphs()
        expected = run_module(gm, INPUTS)

        broken = _graphs()
        graph = broken.graphs["main"]
        # Find a producer/consumer pair in consecutive nodes and merge the
        # consumer into the producer's node — illegal under VLIW
        # semantics (the consumer now reads the stale value).
        moved = False
        for nid, node in list(graph.nodes.items()):
            if len(node.succs) != 1 or not node.ops:
                continue
            succ = graph.nodes[node.succs[0]]
            if not succ.ops or succ.control is not None:
                continue
            producer = node.ops[0]
            consumer = succ.ops[0]
            if producer.dest is not None \
                    and producer.dest in consumer.uses() \
                    and not consumer.is_store:
                succ.ops.remove(consumer)
                node.ops.append(consumer)
                moved = True
                break
        assert moved, "test setup: no mergeable pair found"
        try:
            actual = run_module(broken, INPUTS)
        except Exception:
            return  # reading an undefined register is also a catch
        assert actual.globals_after != expected.globals_after or \
            actual.return_value != expected.return_value, \
            "oracle failed to observe the illegal transformation"


class TestVerifierCatchesCorruption:
    def test_dangling_branch_target(self):
        module = compile_source(SRC, "t")
        fn = module.functions["main"]
        branch = next(ins for ins in fn.instructions()
                      if ins.op is Op.BR)
        branch.true_label = ".nowhere"
        with pytest.raises(IRError):
            verify_module(module)

    def test_type_corruption(self):
        module = compile_source(SRC, "t")
        fn = module.functions["main"]
        add = next(ins for ins in fn.instructions() if ins.op is Op.ADD)
        add.srcs = (VirtualReg("bogus", is_float=True), add.srcs[1])
        with pytest.raises(IRError):
            verify_module(module)


class TestEvaluatorOracle:
    def test_broken_fusion_detected(self):
        """A chained instruction that drops one of its parts must be
        rejected by the base-vs-chained comparison."""
        from repro.asip.evaluate import evaluate_on_sequential
        from repro.asip.isa import ChainedInstruction, InstructionSet
        from repro.asip.resequence import resequence_module
        from repro.asip import select as select_mod

        gm = _graphs()
        sequential = resequence_module(gm)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))

        original_build = select_mod.build_fused

        def sabotaged(module, sites):
            fused = original_build(module, sites)
            for name, run, chain in sites:
                # Drop the last part of the freshly fused instruction.
                head = fused.graphs[name].nodes[run[0]]
                head.ops[0].parts.pop()
                head.ops[0].chain = ChainedInstruction(
                    chain.name, chain.pattern[:-1] + ("add",))
            return fused

        select_mod.build_fused = sabotaged
        try:
            # Either the output comparison (AsipError) or the simulator's
            # undefined-register guard must reject the broken binary.
            from repro.errors import SimulationError
            with pytest.raises((AsipError, SimulationError)):
                evaluate_on_sequential(sequential, isa, INPUTS)
        finally:
            select_mod.build_fused = original_build

    def test_diverging_program_fails_its_whole_group(self, monkeypatch):
        """The measurement kernel simulates each distinct fused program
        once.  A program whose outputs diverge must raise ``AsipError``
        at the first chain set that fuses it, so no later chain set of
        the same program is handed an evaluation — and the kernel
        returns nothing at all."""
        from repro.asip.cost import DEFAULT_COST_MODEL
        from repro.asip.explore import _isa_for
        from repro.asip.select import ChainMatcher, site_key
        from repro.exec import explore as explore_mod

        name, level = "sewha", 1
        pool, _ops, sequential, inputs_list, base_results = \
            explore_mod._explore_base(name, level, (2, 3), (0,), 2,
                                      "codegen")
        matcher = ChainMatcher(sequential)
        fusing = [c.pattern for c in pool
                  if matcher.match(_isa_for([c.pattern], DEFAULT_COST_MODEL))]
        good, bad = fusing[:2]
        never = ("divide", "divide")
        pattern_sets = [(good,), (good, never), (bad,), (bad, never)]
        keys = [site_key(matcher.match(_isa_for(p, DEFAULT_COST_MODEL)))
                for p in pattern_sets]
        assert keys[0] == keys[1] != keys[2] == keys[3]

        evaluated = []
        real_evaluate = explore_mod.evaluate_on_sequential_batch

        def recording_evaluate(seq, isa, *args, **kwargs):
            evaluated.append(tuple(isa.patterns()))
            return real_evaluate(seq, isa, *args, **kwargs)

        _diverge_on(monkeypatch, bad)
        monkeypatch.setattr(explore_mod, "evaluate_on_sequential_batch",
                            recording_evaluate)
        with pytest.raises(AsipError, match="diverged"):
            explore_mod._measure_pattern_sets(
                sequential, pattern_sets, inputs_list, base_results,
                "codegen")
        assert evaluated == [(good,), (bad,)]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("frontier", [False, True],
                             ids=["budgets", "frontier"])
    def test_diverging_program_fails_the_study(self, monkeypatch, jobs,
                                               frontier):
        """The same divergence raises out of both study entry points,
        through the per-benchmark task — in this process at ``jobs=1``
        and from a pool worker at ``jobs=2``."""
        from repro.exec import pool as pool_mod
        from repro.feedback.study import (ExplorationStudyConfig,
                                          FrontierStudyConfig,
                                          run_exploration_study,
                                          run_frontier_study)
        _diverge_on(monkeypatch, ("add", "compare"))
        names = ("sewha", "dft")  # two tasks: jobs=2 uses the pool
        # Workers fork from this process, so only a pool started after
        # the patch runs the diverging simulator.
        pool_mod.shutdown_pool()
        try:
            with pytest.raises(AsipError, match="diverged"):
                if frontier:
                    run_frontier_study(FrontierStudyConfig(
                        benchmarks=names, max_budget=1200, jobs=jobs))
                else:
                    run_exploration_study(ExplorationStudyConfig(
                        benchmarks=names, budgets=(2500,), jobs=jobs))
        finally:
            pool_mod.shutdown_pool()


def _skew_primary_base(monkeypatch):
    """Make each benchmark's primary-seed base profile count one fused
    head once more than it ran, so the derived evaluations of every
    program fusing that head disagree with the primary-seed simulation."""
    from repro.asip.cost import DEFAULT_COST_MODEL
    from repro.asip.evaluate import match_programs
    from repro.asip.explore import _isa_for
    from repro.exec import explore as explore_mod
    from repro.sim.machine import MachineResult
    from repro.sim.profile import ProfileData
    real_measure = explore_mod._measure_pattern_sets

    def skewed_measure(sequential, pattern_sets, inputs_list, base_results,
                       engine):
        _firsts, sites = match_programs(
            sequential, [_isa_for(patterns, DEFAULT_COST_MODEL)
                         for patterns in pattern_sets])
        fn_name, run, _chain = next(site for matched in sites
                                    for site in matched)
        primary = base_results[0]
        counts = {fn: dict(node_counts) for fn, node_counts
                  in primary.profile.node_counts.items()}
        counts[fn_name][run[0]] = counts[fn_name].get(run[0], 0) + 1
        skewed = MachineResult(primary.return_value, primary.globals_after,
                               ProfileData(node_counts=counts,
                                           call_counts=dict(
                                               primary.profile.call_counts)))
        return real_measure(sequential, pattern_sets, inputs_list,
                            (skewed,) + tuple(base_results[1:]), engine)

    monkeypatch.setattr(explore_mod, "_measure_pattern_sets", skewed_measure)


class TestDerivationCrossCheck:
    """Multi-seed measurement simulates each fused program on the primary
    seed only and derives the other seeds; the primary seed is derived
    too, and a derivation that disagrees with the simulation must fail
    the study rather than be reported."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("frontier", [False, True],
                             ids=["budgets", "frontier"])
    def test_disagreeing_derivation_fails_the_study(self, monkeypatch, jobs,
                                                    frontier):
        from repro.exec import pool as pool_mod
        from repro.feedback.study import (ExplorationStudyConfig,
                                          FrontierStudyConfig,
                                          run_exploration_study,
                                          run_frontier_study)
        _skew_primary_base(monkeypatch)
        names, seeds = ("sewha", "dft"), (0, 1)
        # Workers fork from this process, so only a pool started after
        # the patch runs the skewed kernel.
        pool_mod.shutdown_pool()
        try:
            with pytest.raises(AsipError, match="disagrees"):
                if frontier:
                    run_frontier_study(FrontierStudyConfig(
                        benchmarks=names, max_budget=1200, seeds=seeds,
                        jobs=jobs))
                else:
                    run_exploration_study(ExplorationStudyConfig(
                        benchmarks=names, budgets=(2500,), seeds=seeds,
                        jobs=jobs))
        finally:
            pool_mod.shutdown_pool()

    def test_fused_batches_run_width_one(self, monkeypatch):
        """Every fused program runs on the primary seed alone; only the
        benchmark's base batch covers every seed."""
        from repro.asip import evaluate as evaluate_mod
        from repro.asip.select import FusedInstruction
        from repro.exec import explore as explore_mod
        from repro.feedback.study import (ExplorationStudyConfig,
                                          run_exploration_study)
        widths = {"fused": [], "base": []}

        def recording(kind, real):
            def batch(module, inputs_list, *args, **kwargs):
                fused = any(isinstance(ins, FusedInstruction)
                            for graph in module.graphs.values()
                            for node in graph.nodes.values()
                            for ins in node.ops)
                widths.setdefault("fused" if fused else kind, []).append(
                    len(inputs_list))
                return real(module, inputs_list, *args, **kwargs)
            return batch

        monkeypatch.setattr(evaluate_mod, "run_module_batch", recording(
            "unfused", evaluate_mod.run_module_batch))
        monkeypatch.setattr(explore_mod, "run_module_batch", recording(
            "base", explore_mod.run_module_batch))
        seeds = (0, 1, 2)
        study = run_exploration_study(ExplorationStudyConfig(
            benchmarks=("sewha",), budgets=(1500, 2500), seeds=seeds,
            jobs=1))
        measured = study.exploration("sewha", 2500).measured
        assert measured and measured[0].evaluation.selection.total_sites
        assert widths["base"] == [len(seeds)]
        assert widths["fused"] and set(widths["fused"]) == {1}
        assert "unfused" not in widths


class TestSimulatorGuards:
    def test_wrong_arity_call(self):
        from repro.ir.asm import parse_module
        module = parse_module("""
        func int f(int a, int b) {
          t0 = add a, b
          ret t0
        }
        func int main() {
          t0 = call f(1)
          ret t0
        }
        """)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            run_module(build_module_graphs(module))

    def test_malformed_graph_missing_successor(self):
        gm = _graphs()
        graph = gm.graphs["main"]
        victim = next(n for n in graph.nodes.values()
                      if len(n.succs) == 1 and n.ops)
        graph.remove_edge(victim.id, victim.succs[0])
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            run_module(gm, INPUTS)

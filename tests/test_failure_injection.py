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
        from repro.asip import evaluate as evaluate_mod
        from repro.asip.cost import DEFAULT_COST_MODEL
        from repro.asip.explore import _isa_for
        from repro.asip.select import (ChainMatcher, FusedInstruction,
                                       site_key)
        from repro.exec import explore as explore_mod

        name, level = "sewha", 1
        pool, base_results, _ops = explore_mod._explore_base(
            name, level, (2, 3), 0, None, 2, "codegen")
        sequential, _mapping = explore_mod._sequential_module(name, level, 2)
        matcher = ChainMatcher(sequential)
        fusing = [c.pattern for c in pool
                  if matcher.match(_isa_for([c.pattern], DEFAULT_COST_MODEL))]
        good, bad = fusing[:2]
        never = ("divide", "divide")
        pattern_sets = [(good,), (good, never), (bad,), (bad, never)]
        keys = [site_key(matcher.match(_isa_for(p, DEFAULT_COST_MODEL)))
                for p in pattern_sets]
        assert keys[0] == keys[1] != keys[2] == keys[3]

        real_run = evaluate_mod.run_module

        def diverging_run(module, *args, **kwargs):
            result = real_run(module, *args, **kwargs)
            fused = {tuple(ins.chain.pattern)
                     for graph in module.graphs.values()
                     for node in graph.nodes.values() for ins in node.ops
                     if isinstance(ins, FusedInstruction)}
            if bad in fused:
                array = next(iter(result.globals_after.values()))
                array[0] += 1
            return result

        evaluated = []
        real_evaluate = explore_mod.evaluate_on_sequential

        def recording_evaluate(seq, isa, *args, **kwargs):
            evaluated.append(tuple(isa.patterns()))
            return real_evaluate(seq, isa, *args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "run_module", diverging_run)
        monkeypatch.setattr(explore_mod, "evaluate_on_sequential",
                            recording_evaluate)
        with pytest.raises(AsipError, match="diverged"):
            explore_mod._measure_pattern_sets(
                name, level, None, 0, 2, "codegen", pattern_sets,
                base_results)
        assert evaluated == [(good,), (bad,)]


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

"""Default-engine tests: differential equivalence, caching, chain commits.

The default engine (``codegen``, :mod:`repro.sim.codegen`), reached through
``run_module``'s default argument exactly as every unpinned caller reaches
it, must be indistinguishable from the reference interpreter — return
value, memory state and the *complete* profile (node, edge and call
counts).  The differential tests here sweep the whole DSP suite at level 0
and level 1 (PIPELINED) and over chained (post-``select_chains``)
sequential modules, so every opcode, the VLIW read/commit discipline,
calls, and fused-chain forwarding are all covered.
"""

import pytest

from repro.asip.evaluate import evaluate_on_sequential
from repro.asip.isa import ChainedInstruction, InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import FusedInstruction, select_chains
from repro.cfg.build import build_module_graphs
from repro.cfg.graph import GraphModule, ProgramGraph
from repro.chaining.detect import detect_sequences
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.codegen import CodegenEngine, generate_module
from repro.sim.machine import ENGINES, run_module, run_module_batch
from repro.sim.profile import ProfileData
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark

SUITE = [spec.name for spec in all_benchmarks()]


def assert_identical(reference, default):
    """Bit-identical MachineResults, profile included."""
    assert default.return_value == reference.return_value
    assert default.globals_after == reference.globals_after
    assert default.profile.node_counts == reference.profile.node_counts
    assert default.profile.edge_counts == reference.profile.edge_counts
    assert default.profile.call_counts == reference.profile.call_counts


def run_both(graph_module, inputs):
    reference = run_module(graph_module, inputs, engine="reference")
    default = run_module(graph_module, inputs)
    assert_identical(reference, default)
    return reference, default


class TestSuiteDifferential:
    """Every suite program, both engines, bit-identical results."""

    @pytest.mark.parametrize("name", SUITE)
    def test_level0(self, name):
        spec = get_benchmark(name)
        gm = build_module_graphs(compile_benchmark(spec))
        run_both(gm, spec.generate_inputs(0))

    @pytest.mark.parametrize("name", SUITE)
    def test_pipelined(self, name):
        spec = get_benchmark(name)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel.PIPELINED)
        run_both(gm, spec.generate_inputs(0))

    @pytest.mark.parametrize("name", SUITE)
    def test_chained_sequential(self, name):
        """Re-sequentialize, fuse the program's own hottest sequences, and
        compare engines on the chained module (exercises Op.CHAIN)."""
        spec = get_benchmark(name)
        inputs = spec.generate_inputs(0)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel.PIPELINED)
        sequential = resequence_module(gm)
        profile = run_module(sequential, inputs).profile
        detection = detect_sequences(sequential, profile, (2, 3))
        isa = InstructionSet()
        for length in (3, 2):
            for pattern, _freq in detection.top(length, limit=1):
                if isa.find(pattern) is None:
                    isa.add_chain(ChainedInstruction.from_sequence(pattern))
        fused, stats = select_chains(sequential, isa)
        if isa.chains:
            assert stats.total_sites > 0, \
                f"{name}: no chain fused; test covers nothing"
        run_both(fused, inputs)


class TestEngineSelector:
    def test_unknown_engine_rejected(self):
        gm = build_module_graphs(
            compile_source("int main() { return 1; }", "t"))
        with pytest.raises(SimulationError):
            run_module(gm, engine="turbo")

    def test_reference_engine_still_selectable(self):
        gm = build_module_graphs(
            compile_source("int main() { return 41 + 1; }", "t"))
        assert run_module(gm, engine="reference").return_value == 42


class TestCompilationCache:
    def _graphs(self):
        return build_module_graphs(compile_source(
            "int x[4]; int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i++) { s += x[i]; } return s; }", "t"))

    def test_cache_reused_across_runs(self):
        gm = self._graphs()
        first = generate_module(gm)
        assert generate_module(gm) is first
        run_module(gm, {"x": [1, 2, 3, 4]})
        assert generate_module(gm) is first

    def test_cache_invalidated_by_node_edit(self):
        gm = self._graphs()
        first = generate_module(gm)
        graph = gm.graphs["main"]
        node = next(n for n in graph.nodes.values() if n.ops)
        node.ops.append(Instruction(Op.NOP))
        assert generate_module(gm) is not first

    def test_cache_invalidated_by_operand_rewrite(self):
        gm = self._graphs()
        first = generate_module(gm)
        graph = gm.graphs["main"]
        ins = next(i for n in graph.nodes.values() for i in n.ops
                   if i.op is Op.ADD and i.dest is not None)
        ins.replace_uses({reg: Constant(7) for reg in ins.uses()})
        second = generate_module(gm)
        assert second is not first
        # ...and the regenerated module reflects the rewrite.
        assert run_module(gm, {"x": [1, 2, 3, 4]}).return_value == \
            run_module(gm, {"x": [1, 2, 3, 4]},
                       engine="reference").return_value

    def test_copy_does_not_share_cache(self):
        gm = self._graphs()
        generate_module(gm)
        assert "_codegen_cache" not in gm.copy().__dict__


class TestErrorParity:
    """The default engine raises the same SimulationErrors."""

    def _both_raise(self, gm, inputs=None, match=None):
        for engine in ENGINES:
            with pytest.raises(SimulationError, match=match):
                run_module(gm, inputs, engine=engine)

    def test_out_of_bounds(self):
        gm = build_module_graphs(compile_source(
            "int a[4]; int n = 9; int main() { return a[n]; }", "t"))
        self._both_raise(gm, match="out of bounds")

    def test_division_by_zero(self):
        gm = build_module_graphs(compile_source(
            "int n = 0; int main() { return 5 / n; }", "t"))
        self._both_raise(gm, match="division by zero")

    def test_cycle_limit(self):
        gm = build_module_graphs(compile_source(
            "int main() { while (1) { } return 0; }", "t"))
        for engine in ENGINES:
            with pytest.raises(SimulationError, match="cycle limit"):
                run_module(gm, max_cycles=500, engine=engine)

    def test_recursion_depth(self):
        gm = build_module_graphs(compile_source(
            "int f(int n) { return f(n + 1); }"
            " int main() { return f(0); }", "t"))
        self._both_raise(gm, match="depth")

    def test_undefined_register_read(self):
        """A register consumed before any write raises on both engines."""
        graph = ProgramGraph("main", return_type="int")
        n0 = graph.new_node()
        n1 = graph.new_node()
        ghost = VirtualReg("%ghost")
        n0.ops.append(Instruction(Op.ADD, dest=VirtualReg("%r"),
                                  srcs=(ghost, Constant(1))))
        n1.control = Instruction(Op.RET, srcs=(VirtualReg("%r"),))
        graph.entry = n0.id
        graph.add_edge(n0.id, n1.id)
        gm = GraphModule("t", {"main": graph}, {}, {}, {})
        self._both_raise(gm, match="undefined register")

    def test_undefined_register_move(self):
        """A MOV never coerces its operand, so the generated code needs an
        explicit check to match the reference interpreter's raise."""
        graph = ProgramGraph("main", return_type="int")
        n0 = graph.new_node()
        n1 = graph.new_node()
        n0.ops.append(Instruction(Op.MOV, dest=VirtualReg("%a"),
                                  srcs=(VirtualReg("%ghost"),)))
        n1.control = Instruction(Op.RET, srcs=(Constant(7),))
        graph.entry = n0.id
        graph.add_edge(n0.id, n1.id)
        gm = GraphModule("t", {"main": graph}, {}, {}, {})
        self._both_raise(gm, match="undefined register '%ghost'")


def _chain_module():
    """A hand-built graph exercising Op.CHAIN commit semantics.

    Node n1 carries, in order, a *non-chained* add reading register ``%s``
    and a fused chain whose first part rewrites ``%s`` and whose second part
    consumes it.  Under VLIW semantics the non-chained op must read the
    pre-cycle ``%s`` (100) while the chain's parts forward the fresh value
    (2 + 3 = 5) to each other within the cycle.
    """
    out = ArraySymbol("out", 3)
    a, b = VirtualReg("%a"), VirtualReg("%b")
    s, p, q = VirtualReg("%s"), VirtualReg("%p"), VirtualReg("%q")

    graph = ProgramGraph("main", return_type="int")
    n0, n1, n2, n3 = (graph.new_node() for _ in range(4))
    n0.ops = [Instruction(Op.MOV, dest=a, srcs=(Constant(2),)),
              Instruction(Op.MOV, dest=b, srcs=(Constant(3),)),
              Instruction(Op.MOV, dest=s, srcs=(Constant(100),))]
    chain = FusedInstruction(
        ChainedInstruction("add_mul", ("add", "multiply")),
        [Instruction(Op.ADD, dest=s, srcs=(a, b)),
         Instruction(Op.MUL, dest=p, srcs=(s, Constant(2)))])
    n1.ops = [Instruction(Op.ADD, dest=q, srcs=(s, Constant(0))),
              chain]
    n2.ops = [Instruction(Op.STORE, srcs=(q, Constant(0)), array=out),
              Instruction(Op.STORE, srcs=(s, Constant(1)), array=out),
              Instruction(Op.STORE, srcs=(p, Constant(2)), array=out)]
    n3.control = Instruction(Op.RET, srcs=(p,))
    graph.entry = n0.id
    for src, dst in ((n0, n1), (n1, n2), (n2, n3)):
        graph.add_edge(src.id, dst.id)
    return GraphModule("t", {"main": graph}, {"out": out}, {}, {})


class TestChainCommitSemantics:
    """Satellite: Op.CHAIN operand forwarding vs. pre-cycle reads."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_forwarding_and_precycle_reads(self, engine):
        result = run_module(_chain_module(), engine=engine)
        out = result.array("out")
        assert out[0] == 100, "non-chained op must read pre-cycle state"
        assert out[1] == 5, "chain part 1 write must commit"
        assert out[2] == 10, "chain part 2 must see part 1's write"
        assert result.return_value == 10

    def test_identical_across_engines(self):
        run_both(_chain_module(), None)


class TestBaseResultReuse:
    """Satellite: evaluate_on_sequential(base_result=) caching."""

    def _sequential(self):
        gm = build_module_graphs(compile_source(
            "int x[16]; int y[16];"
            " int main() { int i;"
            "  for (i = 0; i < 16; i++) { y[i] = x[i] * 3 + 1; }"
            "  return y[15]; }", "t"))
        return resequence_module(gm)

    def test_cached_base_matches_fresh_base(self):
        inputs = {"x": list(range(16))}
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        seq = self._sequential()
        fresh = evaluate_on_sequential(seq, isa, inputs)
        cached_base = run_module(seq, inputs)
        reused = evaluate_on_sequential(seq, isa, inputs,
                                        base_result=cached_base)
        assert reused.base_cycles == fresh.base_cycles
        assert reused.chained_cycles == fresh.chained_cycles
        assert reused.chain_issues == fresh.chain_issues

    def test_explore_designs_measures_with_shared_base(self):
        from repro.asip.explore import explore_designs
        spec = get_benchmark("sewha")
        module = compile_benchmark(spec)
        inputs = spec.generate_inputs(0)
        result = explore_designs(module, inputs, area_budget=2500,
                                 measure_top=2)
        assert result.measured, "exploration found no measurable design"
        base_cycles = {p.evaluation.base_cycles for p in result.measured}
        assert len(base_cycles) == 1, \
            "all finalists must share the single cached base simulation"
        assert all(p.evaluation.speedup >= 1.0 for p in result.measured)


class TestMergeArrays:
    """Satellite: the flat-counter fold entry point."""

    def test_merges_and_skips_zeros(self):
        profile = ProfileData()
        profile.merge_arrays("f", [0, 1, 2], [5, 0, 7],
                             [(0, 1), (1, 2)], [3, 0])
        assert profile.node_counts == {"f": {0: 5, 2: 7}}
        assert profile.edge_counts == {"f": {(0, 1): 3}}

    def test_all_zero_graph_leaves_no_entry(self):
        profile = ProfileData()
        profile.merge_arrays("g", [0, 1], [0, 0], [(0, 1)], [0])
        assert "g" not in profile.node_counts
        assert "g" not in profile.edge_counts

    def test_accumulates_onto_existing_counts(self):
        profile = ProfileData()
        profile.count_node("f", 0)
        profile.merge_arrays("f", [0], [4], [], [])
        assert profile.node_counts["f"][0] == 5


class TestBatchedSimulation:
    """Multi-seed property: ``run_module_batch`` over N input sets is
    bit-identical to N independent ``run_module`` calls — on both engines,
    across seeds 0-4 and optimization levels 0/1/2."""

    SEEDS = (0, 1, 2, 3, 4)
    BENCHES = ("fir", "smooth", "sewha")

    def _optimized(self, name, level):
        spec = get_benchmark(name)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        return spec, gm

    @pytest.mark.parametrize("name", BENCHES)
    @pytest.mark.parametrize("level", (0, 1, 2))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_matches_independent_runs(self, name, level, engine):
        spec, gm = self._optimized(name, level)
        inputs = [spec.generate_inputs(seed) for seed in self.SEEDS]
        batched = run_module_batch(gm, inputs, engine=engine)
        singles = [run_module(gm, i, engine=engine) for i in inputs]
        assert len(batched) == len(self.SEEDS)
        for one, many in zip(singles, batched):
            assert_identical(one, many)

    @pytest.mark.parametrize("name", BENCHES)
    def test_batch_engines_agree(self, name):
        spec, gm = self._optimized(name, 1)
        inputs = [spec.generate_inputs(seed) for seed in self.SEEDS]
        for ref, default in zip(run_module_batch(gm, inputs,
                                                 engine="reference"),
                                run_module_batch(gm, inputs)):
            assert_identical(ref, default)

    def test_seeds_actually_vary_the_run(self):
        spec, gm = self._optimized("fir", 0)
        results = run_module_batch(
            gm, [spec.generate_inputs(s) for s in self.SEEDS])
        snapshots = [r.globals_after for r in results]
        assert len({repr(s) for s in snapshots}) == len(self.SEEDS), \
            "every seed must produce distinct outputs or the sweep is moot"

    def test_batch_compiles_once(self, monkeypatch):
        import repro.sim.codegen as codegen_mod
        spec, gm = self._optimized("fir", 1)
        calls = []
        real = codegen_mod._compile_sources

        def counting(module, sources):
            calls.append(module)
            return real(module, sources)

        monkeypatch.setattr(codegen_mod, "_compile_sources", counting)
        monkeypatch.setenv("REPRO_CACHE", "none")
        run_module_batch(gm, [spec.generate_inputs(s) for s in self.SEEDS])
        assert len(calls) == 1, "a batch must pay compilation exactly once"

    def test_empty_batch(self):
        _spec, gm = self._optimized("fir", 0)
        assert run_module_batch(gm, []) == []

    def test_unknown_engine_rejected(self):
        _spec, gm = self._optimized("fir", 0)
        with pytest.raises(SimulationError):
            run_module_batch(gm, [None], engine="turbo")

    def test_batch_profiles_are_independent(self):
        """Each batched run folds its own flat counters; nothing leaks."""
        _spec, gm = self._optimized("fir", 0)
        spec = get_benchmark("fir")
        inputs = spec.generate_inputs(0)
        twice = run_module_batch(gm, [inputs, inputs])
        assert twice[0].profile == twice[1].profile
        assert twice[0].cycles == run_module(gm, inputs).cycles


class TestCompiledEngineReuse:
    def test_engine_object_reusable_across_runs(self):
        spec = get_benchmark("sewha")
        gm = build_module_graphs(compile_benchmark(spec))
        engine = CodegenEngine(gm)
        first = engine.run(spec.generate_inputs(0))
        second = engine.run(spec.generate_inputs(0))
        assert first.return_value == second.return_value
        assert first.profile == second.profile

    def test_fresh_profile_each_run(self):
        gm = build_module_graphs(compile_source(
            "int main() { int i; int s; s = 0;"
            " for (i = 0; i < 10; i++) { s += i; } return s; }", "t"))
        first = run_module(gm)
        second = run_module(gm)
        assert first.cycles == second.cycles

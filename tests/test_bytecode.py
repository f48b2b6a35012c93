"""Lowered-form tests: persisted words, lowering cache, VLIW hazards.

:func:`repro.sim.engine.lower_module` flattens each graph into a word
list (jump targets are word indices), which the codegen engine emits
Python from and the disk cache persists, pickled as is, inside the
codegen entry.  This file pins the lowered
form: a module rebuilt from a pickled disk entry (lowered words plus
marshalled code) is indistinguishable from the reference interpreter —
return value, memory state and the *complete* profile — across the
12-benchmark suite at levels 0, 1 and 2, on chained modules and in the
study matrix; hand-built VLIW nodes exercise the read/commit discipline
the lowering encodes; and the lowering cache follows every graph edit.
"""

import pickle

import pytest

from repro.asip.isa import ChainedInstruction, InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import select_chains
from repro.cfg.build import build_module_graphs
from repro.cfg.graph import GraphModule, ProgramGraph
from repro.chaining.detect import detect_sequences
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import Constant, VirtualReg
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.codegen import generate_module
from repro.sim.engine import lower_module
from repro.sim.machine import ENGINES, run_module, run_module_batch
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark, run_benchmark

SUITE = [spec.name for spec in all_benchmarks()]
LEVELS = (0, 1, 2)


def assert_identical(expected, actual):
    """Bit-identical MachineResults, profile included."""
    assert actual.return_value == expected.return_value
    assert actual.globals_after == expected.globals_after
    assert actual.profile.node_counts == expected.profile.node_counts
    assert actual.profile.edge_counts == expected.profile.edge_counts
    assert actual.profile.call_counts == expected.profile.call_counts


@pytest.fixture
def disk(tmp_path, monkeypatch):
    """A fresh, private disk cache for the test."""
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    diskcache.reset_cache_state()
    yield diskcache.get_cache()
    diskcache.reset_cache_state()


def warm_clone(gm, cache):
    """A pickled copy of *gm* (engine caches stripped) whose generated
    form is served from the disk entry the original's generation wrote."""
    generate_module(gm)
    clone = pickle.loads(pickle.dumps(gm))
    hits = cache.hits["codegen"]
    generate_module(clone)
    assert cache.hits["codegen"] == hits + 1, "the clone must load from disk"
    return clone


class TestSuiteDifferential:
    """Every benchmark at every level: disk-loaded words == reference."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", SUITE)
    def test_levels(self, name, level, disk):
        spec = get_benchmark(name)
        inputs = spec.generate_inputs(0)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        reference = run_module(gm, inputs, engine="reference")
        clone = warm_clone(gm, disk)
        assert_identical(reference, run_module(clone, inputs,
                                               engine="codegen"))

    @pytest.mark.parametrize("name", SUITE)
    def test_chained_sequential(self, name, disk):
        """Fused-chain modules (Op.CHAIN commit semantics) agree too."""
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
        fused, _stats = select_chains(sequential, isa)
        reference = run_module(fused, inputs, engine="reference")
        clone = warm_clone(fused, disk)
        assert_identical(reference, run_module(clone, inputs,
                                               engine="codegen"))

    def test_benchmark_run_end_to_end(self, disk):
        """A cold and a warm run_benchmark agree end to end, detection
        included (it only consumes the identical profile)."""
        spec = get_benchmark("sewha")
        cold = run_benchmark(spec, OptLevel.PIPELINED)
        hits = disk.hits["codegen"]
        warm = run_benchmark(spec, OptLevel.PIPELINED)
        assert disk.hits["codegen"] > hits
        assert warm.cycles == cold.cycles
        assert_identical(cold.machine_result, warm.machine_result)
        assert warm.detection.total_ops == cold.detection.total_ops
        for length in (2, 3, 4, 5):
            assert warm.detection.top(length) == cold.detection.top(length)


class TestBatchedSimulation:
    """Multi-seed batches lower once and stay bit-identical."""

    SEEDS = (0, 1, 2, 3, 4)

    def _optimized(self, name, level=1):
        spec = get_benchmark(name)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        return spec, gm

    @pytest.mark.parametrize("name", ("fir", "smooth", "sewha"))
    @pytest.mark.parametrize("level", LEVELS)
    def test_batch_matches_independent_runs(self, name, level):
        """The reference engine's batch form against single codegen runs
        (the codegen batch is pinned the other way round in
        ``tests/test_codegen.py``)."""
        spec, gm = self._optimized(name, level)
        inputs = [spec.generate_inputs(seed) for seed in self.SEEDS]
        batched = run_module_batch(gm, inputs, engine="reference")
        singles = [run_module(gm, i, engine="codegen") for i in inputs]
        assert len(batched) == len(self.SEEDS)
        for one, many in zip(singles, batched):
            assert_identical(one, many)

    def test_batch_lowers_once(self, monkeypatch):
        import repro.sim.codegen as codegen_mod
        spec, gm = self._optimized("fir")
        calls = []
        real = codegen_mod.lower_module

        def counting(module):
            calls.append(module)
            return real(module)

        monkeypatch.setattr(codegen_mod, "lower_module", counting)
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, diskcache.DISABLE_VALUE)
        run_module_batch(gm, [spec.generate_inputs(s) for s in self.SEEDS],
                         engine="codegen")
        assert len(calls) == 1, "a batch must pay lowering exactly once"

    def test_empty_batch(self):
        _spec, gm = self._optimized("fir")
        assert run_module_batch(gm, [], engine="reference") == []


class TestStudyDifferential:
    """The study matrix served from a warm disk cache: warm == cold, and
    warm jobs=2 == warm jobs=1 (workers load the parent's entries)."""

    CONFIG = dict(benchmarks=("fir", "iir", "sewha"), seeds=(0, 1, 2))

    @pytest.fixture(scope="class")
    def studies(self, tmp_path_factory):
        from repro.feedback.study import StudyConfig, run_study
        mp = pytest.MonkeyPatch()
        mp.setenv(diskcache.CACHE_ENV_VAR,
                  str(tmp_path_factory.mktemp("study-cache")))
        diskcache.reset_cache_state()
        try:
            cold = run_study(StudyConfig(jobs=1, **self.CONFIG))
            hits = diskcache.get_cache().hits["codegen"]
            warm = run_study(StudyConfig(jobs=1, **self.CONFIG))
            assert diskcache.get_cache().hits["codegen"] > hits
            parallel = run_study(StudyConfig(jobs=2, **self.CONFIG))
        finally:
            mp.undo()
            diskcache.reset_cache_state()
        return cold, warm, parallel

    def test_engines_agree_across_matrix(self, studies):
        cold, warm, _parallel = studies
        for name in self.CONFIG["benchmarks"]:
            for level in LEVELS:
                ra = cold.benchmark(name).run_at(level)
                rb = warm.benchmark(name).run_at(level)
                assert ra.seeds == rb.seeds
                assert ra.cycles_by_seed() == rb.cycles_by_seed()
                for sa, sb in zip(ra.seed_results, rb.seed_results):
                    assert_identical(sa, sb)

    def test_jobs2_bit_identical(self, studies):
        from repro.reporting.tables import table2
        _cold, warm, parallel = studies
        for name in self.CONFIG["benchmarks"]:
            for level in LEVELS:
                ra = warm.benchmark(name).run_at(level)
                rb = parallel.benchmark(name).run_at(level)
                assert_identical(ra.machine_result, rb.machine_result)
                for sa, sb in zip(ra.seed_results, rb.seed_results):
                    assert_identical(sa, sb)
        assert table2(parallel) == table2(warm)


class TestErrorParity:
    """Both engines raise the same SimulationErrors."""

    def _all_raise(self, gm, inputs=None, match=None, max_cycles=None):
        for engine in ENGINES:
            kwargs = {"engine": engine}
            if max_cycles is not None:
                kwargs["max_cycles"] = max_cycles
            with pytest.raises(SimulationError, match=match):
                run_module(gm, inputs, **kwargs)

    def test_out_of_bounds(self):
        gm = build_module_graphs(compile_source(
            "int a[4]; int n = 9; int main() { return a[n]; }", "t"))
        self._all_raise(gm, match="out of bounds")

    def test_store_out_of_bounds(self):
        gm = build_module_graphs(compile_source(
            "int a[4]; int n = 9; int main() { a[n] = 1; return 0; }",
            "t"))
        self._all_raise(gm, match="out of bounds")

    def test_division_by_zero(self):
        gm = build_module_graphs(compile_source(
            "int n = 0; int main() { return 5 / n; }", "t"))
        self._all_raise(gm, match="division by zero")

    def test_cycle_limit(self):
        gm = build_module_graphs(compile_source(
            "int main() { while (1) { } return 0; }", "t"))
        self._all_raise(gm, match="cycle limit", max_cycles=500)

    def test_cycle_limit_bounded_overrun(self):
        """A *terminating* program that exceeds the limit must raise on
        every engine.  The lowered words check the limit sparsely while
        running (back-edges only), so this pins the exact post-run check
        that keeps complete-vs-abort decisions engine-invariant."""
        spec = get_benchmark("fir")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel.NONE)
        inputs = spec.generate_inputs(0)
        true_cycles = run_module(gm, inputs).cycles
        self._all_raise(gm, inputs=inputs, match="cycle limit",
                        max_cycles=true_cycles // 2)
        # ...and just above the true count, every engine completes.
        for engine in ENGINES:
            result = run_module(gm, inputs, max_cycles=true_cycles,
                                engine=engine)
            assert result.cycles == true_cycles

    def test_recursion_depth(self):
        gm = build_module_graphs(compile_source(
            "int f(int n) { return f(n + 1); }"
            " int main() { return f(0); }", "t"))
        self._all_raise(gm, match="depth")

    def test_undefined_register_read(self):
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
        self._all_raise(gm, match="undefined register")

    def test_undefined_register_move(self):
        graph = ProgramGraph("main", return_type="int")
        n0 = graph.new_node()
        n1 = graph.new_node()
        n0.ops.append(Instruction(Op.MOV, dest=VirtualReg("%a"),
                                  srcs=(VirtualReg("%ghost"),)))
        n1.control = Instruction(Op.RET, srcs=(Constant(7),))
        graph.entry = n0.id
        graph.add_edge(n0.id, n1.id)
        gm = GraphModule("t", {"main": graph}, {}, {}, {})
        self._all_raise(gm, match="undefined register '%ghost'")


class TestVliwSemantics:
    """Hand-built nodes exercising the read/commit discipline on the
    lowered form: intra-node hazards (deferred or statically reordered),
    branch condition pre-reads, swap patterns."""

    def _module(self, build):
        graph = ProgramGraph("main", return_type="int")
        build(graph)
        return GraphModule("t", {"main": graph}, {}, {}, {})

    def test_parallel_swap(self):
        """{a=b; b=a} in one node: both read pre-cycle values (the true
        read/write cycle that forces the scratch-deferred path)."""
        def build(graph):
            a, b = VirtualReg("%a"), VirtualReg("%b")
            n0, n1, n2 = (graph.new_node() for _ in range(3))
            n0.ops = [Instruction(Op.MOV, dest=a, srcs=(Constant(1),)),
                      Instruction(Op.MOV, dest=b, srcs=(Constant(2),))]
            n1.ops = [Instruction(Op.MOV, dest=a, srcs=(b,)),
                      Instruction(Op.MOV, dest=b, srcs=(a,))]
            n2.control = Instruction(
                Op.RET, srcs=(VirtualReg("%r"),))
            n2.ops = []
            # r = 10*a + b computed in a separate node
            r = VirtualReg("%r")
            t = VirtualReg("%t")
            mid = graph.new_node()
            mid.ops = [Instruction(Op.MUL, dest=t, srcs=(a, Constant(10)))]
            mid2 = graph.new_node()
            mid2.ops = [Instruction(Op.ADD, dest=r, srcs=(t, b))]
            graph.entry = n0.id
            graph.add_edge(n0.id, n1.id)
            graph.add_edge(n1.id, mid.id)
            graph.add_edge(mid.id, mid2.id)
            graph.add_edge(mid2.id, n2.id)
        gm = self._module(build)
        for engine in ENGINES:
            assert run_module(gm, engine=engine).return_value == 21, engine

    def test_pipelined_increment_read(self):
        """{t=i; i=i+1} in one VLIW node: the reader sees the pre-cycle
        value (the reorder-to-direct path: reader emitted first)."""
        def build(graph):
            i, t = VirtualReg("%i"), VirtualReg("%t")
            n0, n1, n2 = (graph.new_node() for _ in range(3))
            n0.ops = [Instruction(Op.MOV, dest=i, srcs=(Constant(5),))]
            n1.ops = [Instruction(Op.ADD, dest=i, srcs=(i, Constant(1))),
                      Instruction(Op.MOV, dest=t, srcs=(i,))]
            n2.control = Instruction(Op.RET, srcs=(t,))
            graph.entry = n0.id
            graph.add_edge(n0.id, n1.id)
            graph.add_edge(n1.id, n2.id)
        gm = self._module(build)
        for engine in ENGINES:
            assert run_module(gm, engine=engine).return_value == 5, engine

    def test_branch_reads_precycle_condition(self):
        """A node computing its own branch condition register still
        branches on the *pre-cycle* value."""
        def build(graph):
            c = VirtualReg("%c")
            n0, nbr, ntrue, nfalse = (graph.new_node() for _ in range(4))
            n0.ops = [Instruction(Op.MOV, dest=c, srcs=(Constant(0),))]
            nbr.ops = [Instruction(Op.MOV, dest=c, srcs=(Constant(1),))]
            nbr.control = Instruction(Op.BR, srcs=(c,))
            ntrue.control = Instruction(Op.RET, srcs=(Constant(111),))
            nfalse.control = Instruction(Op.RET, srcs=(Constant(222),))
            graph.entry = n0.id
            graph.add_edge(n0.id, nbr.id)
            graph.add_edge(nbr.id, ntrue.id)
            graph.add_edge(nbr.id, nfalse.id)
        gm = self._module(build)
        for engine in ENGINES:
            assert run_module(gm, engine=engine).return_value == 222, engine

    def test_single_successor_branch_true_edge(self):
        """A malformed branch node with only a true edge still completes
        when the condition holds — on every engine (the missing false
        edge only raises if actually taken)."""
        def build(graph):
            c = VirtualReg("%c")
            n0, nbr, n2 = (graph.new_node() for _ in range(3))
            n0.ops = [Instruction(Op.MOV, dest=c, srcs=(Constant(1),))]
            nbr.control = Instruction(Op.BR, srcs=(c,))
            n2.control = Instruction(Op.RET, srcs=(Constant(7),))
            graph.entry = n0.id
            graph.add_edge(n0.id, nbr.id)
            graph.add_edge(nbr.id, n2.id)
        gm = self._module(build)
        for engine in ENGINES:
            assert run_module(gm, engine=engine).return_value == 7, engine

    def test_single_successor_branch_false_edge_raises(self):
        """...and the codegen engine raises a clean SimulationError when
        the missing false edge is taken (the reference crashes with an
        IndexError there — a malformed graph either way)."""
        def build(graph):
            c = VirtualReg("%c")
            n0, nbr, n2 = (graph.new_node() for _ in range(3))
            n0.ops = [Instruction(Op.MOV, dest=c, srcs=(Constant(0),))]
            nbr.control = Instruction(Op.BR, srcs=(c,))
            n2.control = Instruction(Op.RET, srcs=(Constant(7),))
            graph.entry = n0.id
            graph.add_edge(n0.id, nbr.id)
            graph.add_edge(nbr.id, n2.id)
        gm = self._module(build)
        with pytest.raises(SimulationError, match="no false edge"):
            run_module(gm, engine="codegen")
        with pytest.raises((SimulationError, IndexError)):
            run_module(gm, engine="reference")

    def test_store_load_same_cycle(self):
        """A load in the same node as a store reads pre-cycle memory."""
        from repro.ir.values import ArraySymbol
        out = ArraySymbol("out", 2)
        graph = ProgramGraph("main", return_type="int")
        v, t = VirtualReg("%v"), VirtualReg("%t")
        n0, n1, n2 = (graph.new_node() for _ in range(3))
        n0.ops = [Instruction(Op.MOV, dest=v, srcs=(Constant(7),))]
        n1.ops = [Instruction(Op.STORE, srcs=(v, Constant(0)), array=out),
                  Instruction(Op.LOAD, dest=t, srcs=(Constant(0),),
                              array=out)]
        n2.ops = [Instruction(Op.STORE, srcs=(t, Constant(1)), array=out)]
        n2.control = Instruction(Op.RET, srcs=(t,))
        graph.entry = n0.id
        graph.add_edge(n0.id, n1.id)
        graph.add_edge(n1.id, n2.id)
        gm = GraphModule("t", {"main": graph}, {"out": out}, {}, {})
        for engine in ENGINES:
            result = run_module(gm, engine=engine)
            assert result.return_value == 0, engine
            assert result.array("out") == [7, 0], engine


class TestLoweredCache:
    """lower_module caches under the module's content digest."""

    def _graphs(self):
        return build_module_graphs(compile_source(
            "int x[4]; int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i++) { s += x[i]; } return s; }", "t"))

    def test_cache_reused_across_runs(self):
        gm = self._graphs()
        first = lower_module(gm)
        assert lower_module(gm) is first
        run_module(gm, {"x": [1, 2, 3, 4]}, engine="codegen")
        assert lower_module(gm) is first

    def test_independent_of_compiled_cache(self):
        """The generated-code cache sits on top of the lowering cache;
        reading either leaves the other in place."""
        gm = self._graphs()
        generated = generate_module(gm)
        lowered = lower_module(gm)
        assert generate_module(gm) is generated
        assert lower_module(gm) is lowered is generated.lowered

    def test_cache_invalidated_by_node_edit(self):
        gm = self._graphs()
        first = lower_module(gm)
        graph = gm.graphs["main"]
        node = next(n for n in graph.nodes.values() if n.ops)
        node.ops.append(Instruction(Op.NOP))
        assert lower_module(gm) is not first

    def test_cache_invalidated_by_operand_rewrite(self):
        gm = self._graphs()
        first = lower_module(gm)
        graph = gm.graphs["main"]
        ins = next(i for n in graph.nodes.values() for i in n.ops
                   if i.op is Op.ADD and i.dest is not None)
        ins.replace_uses({reg: Constant(7) for reg in ins.uses()})
        assert lower_module(gm) is not first
        run_module(gm, {"x": [1, 2, 3, 4]}, engine="codegen")

    def test_cache_invalidated_by_edge_edit(self):
        gm = self._graphs()
        first = lower_module(gm)
        graph = gm.graphs["main"]
        nid, node = next((nid, n) for nid, n in graph.nodes.items()
                         if len(n.succs) == 1)
        graph.redirect_edge(nid, node.succs[0], nid)
        assert lower_module(gm) is not first

    def test_copy_does_not_share_cache(self):
        gm = self._graphs()
        lower_module(gm)
        assert "_compiled" not in gm.copy().__dict__

    def test_cache_stripped_on_pickle(self):
        gm = self._graphs()
        lower_module(gm)
        generate_module(gm)
        clone = pickle.loads(pickle.dumps(gm))
        assert "_compiled" not in clone.__dict__
        # ...and the original keeps its lowering and its code.
        assert gm._compiled[1] is not None
        assert gm._compiled[2] is not None
        # the clone still runs (it re-lowers lazily)
        assert run_module(clone, {"x": [1, 1, 1, 1]},
                          engine="codegen").return_value == 4


class TestCompiledCacheEdgeEdit:
    """Regression: the generated-code slot must still invalidate on
    in-place edge edits (it shares the content key with the lowering)."""

    def test_compiled_cache_invalidated_by_edge_edit(self):
        gm = build_module_graphs(compile_source(
            "int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i++) { s += i; } return s; }", "t"))
        first = generate_module(gm)
        graph = gm.graphs["main"]
        nid, node = next((nid, n) for nid, n in graph.nodes.items()
                         if len(n.succs) == 1)
        graph.redirect_edge(nid, node.succs[0], nid)
        assert generate_module(gm) is not first


class TestEngineSelection:
    def test_explore_runs_on_bytecode(self, disk):
        """The exploration loop measures the same designs from a warm
        cache as from a cold one."""
        from repro.asip.explore import explore_designs
        spec = get_benchmark("sewha")
        module = compile_benchmark(spec)
        inputs = spec.generate_inputs(0)
        cold = explore_designs(module, inputs, area_budget=2500,
                               measure_top=2)
        hits = disk.hits["codegen"]
        warm = explore_designs(module, inputs, area_budget=2500,
                               measure_top=2)
        assert disk.hits["codegen"] > hits
        assert [p.labels() for p in warm.measured] == \
            [p.labels() for p in cold.measured]
        assert [p.speedup for p in warm.measured] == \
            [p.speedup for p in cold.measured]

"""Codegen-engine tests: differential equivalence, caching, hardening.

The exec-compiled engine (:mod:`repro.sim.codegen`) must be
indistinguishable from the reference interpreter — return value, memory
state and the *complete* profile (node, edge and call counts).  The
differential harness here sweeps the whole 12-benchmark DSP suite at
levels 0, 1 and 2, chained (post-``select_chains``) modules, multi-seed
batches, and the study matrix under ``jobs=2``; the random-program fuzz
harness in ``tests/test_fuzz_engines.py`` extends the same oracle to
generated corpora.
"""

import pickle

import pytest

from repro.asip.isa import ChainedInstruction, InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import select_chains
from repro.cfg.build import build_module_graphs
from repro.chaining.detect import detect_sequences
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.codegen import emit_sources, generate_module
from repro.sim.engine import lower_module
from repro.sim.machine import (ENGINES, ensure_engine, run_module,
                               run_module_batch)
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark, run_benchmark
from tests.test_golden_generated_sources import regen

SUITE = [spec.name for spec in all_benchmarks()]
LEVELS = (0, 1, 2)


def assert_identical(expected, actual):
    """Bit-identical MachineResults, profile included."""
    assert actual.return_value == expected.return_value
    assert actual.globals_after == expected.globals_after
    assert actual.profile.node_counts == expected.profile.node_counts
    assert actual.profile.edge_counts == expected.profile.edge_counts
    assert actual.profile.call_counts == expected.profile.call_counts


class TestSuiteDifferential:
    """Every benchmark at every level: codegen == reference."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", SUITE)
    def test_levels(self, name, level):
        spec = get_benchmark(name)
        inputs = spec.generate_inputs(0)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        reference = run_module(gm, inputs, engine="reference")
        codegen = run_module(gm, inputs, engine="codegen")
        assert_identical(reference, codegen)

    @pytest.mark.parametrize("name", SUITE)
    def test_chained_sequential(self, name):
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
        assert_identical(run_module(fused, inputs, engine="reference"),
                         run_module(fused, inputs, engine="codegen"))

    def test_benchmark_run_end_to_end(self):
        """run_benchmark(engine="codegen") matches the reference end to
        end, detection included (it only consumes the identical
        profile)."""
        spec = get_benchmark("sewha")
        reference = run_benchmark(spec, OptLevel.PIPELINED,
                                  engine="reference")
        codegen = run_benchmark(spec, OptLevel.PIPELINED,
                                engine="codegen")
        assert codegen.cycles == reference.cycles
        assert_identical(reference.machine_result, codegen.machine_result)
        assert codegen.detection.total_ops == reference.detection.total_ops
        for length in (2, 3, 4, 5):
            assert codegen.detection.top(length) == \
                reference.detection.top(length)


class TestBatchedSimulation:
    """Multi-seed batches generate once and stay bit-identical."""

    SEEDS = (0, 1, 2, 3, 4)

    def _optimized(self, name, level=1):
        spec = get_benchmark(name)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        return spec, gm

    @pytest.mark.parametrize("name", ("fir", "smooth", "sewha"))
    @pytest.mark.parametrize("level", LEVELS)
    def test_batch_matches_independent_runs(self, name, level):
        spec, gm = self._optimized(name, level)
        inputs = [spec.generate_inputs(seed) for seed in self.SEEDS]
        batched = run_module_batch(gm, inputs, engine="codegen")
        singles = [run_module(gm, i, engine="reference") for i in inputs]
        assert len(batched) == len(self.SEEDS)
        for one, many in zip(singles, batched):
            assert_identical(one, many)

    def test_batch_generates_once(self, monkeypatch):
        import repro.sim.codegen as codegen_mod
        spec, gm = self._optimized("fir")
        calls = []
        real = codegen_mod.generate_module

        def counting(module):
            calls.append(module)
            return real(module)

        monkeypatch.setattr(codegen_mod, "generate_module", counting)
        run_module_batch(gm, [spec.generate_inputs(s) for s in self.SEEDS],
                         engine="codegen")
        assert len(calls) == 1, "a batch must pay generation exactly once"

    def test_empty_batch(self):
        _spec, gm = self._optimized("fir")
        assert run_module_batch(gm, [], engine="codegen") == []


class TestStudyDifferential:
    """The study matrix on the codegen engine: serial == reference-engine
    study, and jobs=2 == jobs=1 (the exec scheduler)."""

    CONFIG = dict(benchmarks=("fir", "iir", "sewha"), seeds=(0, 1, 2))

    @pytest.fixture(scope="class")
    def reference_study(self):
        from repro.feedback.study import StudyConfig, run_study
        return run_study(StudyConfig(jobs=1, engine="reference",
                                     **self.CONFIG))

    @pytest.fixture(scope="class")
    def codegen_study(self):
        from repro.feedback.study import StudyConfig, run_study
        return run_study(StudyConfig(jobs=1, engine="codegen",
                                     **self.CONFIG))

    @pytest.fixture(scope="class")
    def codegen_parallel_study(self):
        from repro.feedback.study import StudyConfig, run_study
        return run_study(StudyConfig(jobs=2, engine="codegen",
                                     **self.CONFIG))

    def test_engines_agree_across_matrix(self, reference_study,
                                         codegen_study):
        for name in self.CONFIG["benchmarks"]:
            for level in LEVELS:
                ra = reference_study.benchmark(name).run_at(level)
                rb = codegen_study.benchmark(name).run_at(level)
                assert ra.seeds == rb.seeds
                assert ra.cycles_by_seed() == rb.cycles_by_seed()
                for sa, sb in zip(ra.seed_results, rb.seed_results):
                    assert_identical(sa, sb)

    def test_jobs2_bit_identical(self, codegen_study,
                                 codegen_parallel_study):
        from repro.reporting.tables import table2
        for name in self.CONFIG["benchmarks"]:
            for level in LEVELS:
                ra = codegen_study.benchmark(name).run_at(level)
                rb = codegen_parallel_study.benchmark(name).run_at(level)
                assert_identical(ra.machine_result, rb.machine_result)
                for sa, sb in zip(ra.seed_results, rb.seed_results):
                    assert_identical(sa, sb)
        assert table2(codegen_parallel_study) == table2(codegen_study)


class TestErrorParity:
    """The codegen engine raises the same SimulationErrors."""

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
        """A terminating program exceeding the limit raises on every
        engine; the codegen engine checks sparsely (back-edges) while
        running and exactly post-run."""
        spec = get_benchmark("fir")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel.NONE)
        inputs = spec.generate_inputs(0)
        true_cycles = run_module(gm, inputs).cycles
        self._all_raise(gm, inputs=inputs, match="cycle limit",
                        max_cycles=true_cycles // 2)
        result = run_module(gm, inputs, max_cycles=true_cycles,
                            engine="codegen")
        assert result.cycles == true_cycles

    def test_recursion_depth(self):
        gm = build_module_graphs(compile_source(
            "int f(int n) { return f(n + 1); }"
            " int main() { return f(0); }", "t"))
        self._all_raise(gm, match="depth")

    def test_undefined_register_read(self):
        from repro.cfg.graph import GraphModule, ProgramGraph
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        from repro.ir.values import Constant, VirtualReg
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

    def test_faulting_op_feeding_the_return(self):
        """A single node ``{%t = load @nowhere[0]}`` with control
        ``ret %t``: the load's fault comes first on every engine."""
        from repro.cfg.graph import GraphModule, ProgramGraph
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        from repro.ir.values import ArraySymbol, Constant, VirtualReg
        graph = ProgramGraph("main", return_type="int")
        node = graph.new_node()
        t = VirtualReg("%t")
        node.ops.append(Instruction(Op.LOAD, dest=t, srcs=(Constant(0),),
                                    array=ArraySymbol("nowhere", 4)))
        node.control = Instruction(Op.RET, srcs=(t,))
        graph.entry = node.id
        gm = GraphModule("t", {"main": graph}, {}, {}, {})
        messages = {}
        for engine in ENGINES:
            with pytest.raises(SimulationError) as info:
                run_module(gm, engine=engine)
            messages[engine] = str(info.value)
        assert len(set(messages.values())) == 1, messages

    def test_return_read_before_a_faulting_store(self):
        """``{%t = load @src[0]; store @out[9] = 1}`` with control
        ``ret %t`` and ``%t`` undefined before the node: the return reads
        ``%t`` before any store commits, so the undefined register wins
        over the out-of-bounds store on every engine."""
        from repro.cfg.graph import GraphModule, ProgramGraph
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        from repro.ir.values import ArraySymbol, Constant, VirtualReg
        graph = ProgramGraph("main", return_type="int")
        node = graph.new_node()
        t = VirtualReg("%t")
        src, out = ArraySymbol("src", 2), ArraySymbol("out", 2)
        node.ops.append(Instruction(Op.LOAD, dest=t, srcs=(Constant(0),),
                                    array=src))
        node.ops.append(Instruction(Op.STORE, srcs=(Constant(1),
                                                    Constant(9)),
                                    array=out))
        node.control = Instruction(Op.RET, srcs=(t,))
        graph.entry = node.id
        gm = GraphModule("t", {"main": graph},
                         {"src": src, "out": out}, {}, {})
        self._all_raise(gm, match="^read of undefined register '%t'$")


def _outcome(gm, engine):
    """Everything a run shows: the error text of a faulting run, else the
    return value, memory (by ``repr``, so ``-0.0`` and NaN compare) and
    profile."""
    try:
        result = run_module(gm, engine=engine)
    except SimulationError as exc:
        return "error", str(exc)
    profile = result.profile
    return ("ok", repr(result.return_value), repr(result.globals_after),
            profile.node_counts, profile.edge_counts, profile.call_counts)


class TestInlineForms:
    """The words the generator emits as plain Python (compares, bitwise
    operations, constant shifts and divisions, global and local stores)
    behave exactly like the helpers they replace."""

    @pytest.mark.parametrize("shape", sorted(regen.shape_modules()))
    def test_shape_module_matches_reference(self, shape):
        """Each hand-built shape module (NaN, infinities and ``-0.0``
        compared; values of the other kind stored into global, local
        and parameter arrays; stores out of bounds and at negative
        indices; shifts by zero and by a negative constant; constant
        division of negative, zero and ``-0.0`` dividends, by a negative
        and by a zero constant) gives the same outcome on both engines."""
        gm = regen.shape_modules()[shape]
        assert _outcome(gm, "codegen") == _outcome(gm, "reference")

    @pytest.mark.parametrize("shape", sorted(regen.shape_modules()))
    def test_shape_module_reemits_from_pickled_lowering(self, shape):
        """A disk entry's stored lowering re-emits its stored sources: a
        non-finite constant repeated across words (the ``compares``
        shape) binds one name, although pickling does not keep the
        float's identity."""
        lowered = lower_module(regen.shape_modules()[shape])
        stored = pickle.loads(pickle.dumps(lowered.graphs))
        assert emit_sources(type(lowered).from_graphs(stored))[0] == \
            emit_sources(lowered)[0]

    def test_suite_sources_inline_compares_bitwise_ops_and_stores(self):
        """No suite source binds a compare or bitwise function, and every
        store into a global or local array is the out-of-bounds fallback
        of an inline write."""
        import operator
        import re

        from repro.sim import engine
        inlined = {engine._cmp_eq, engine._cmp_ne, engine._cmp_lt,
                   engine._cmp_le, engine._cmp_gt, engine._cmp_ge,
                   operator.and_, operator.or_, operator.xor}
        store = re.compile(r"\ba(\d+)\.store\(")
        for spec in all_benchmarks():
            module = compile_benchmark(spec)
            for level in LEVELS:
                gm, _ = optimize_module(module, OptLevel(level))
                for form in (gm, resequence_module(gm)):
                    lowered = lower_module(form)
                    sources, consts = emit_sources(lowered)
                    where = (spec.name, level)
                    assert not [k for k, obj in consts.items()
                                if any(obj is fn for fn in inlined)], where
                    for lg, source in zip(lowered.graphs.values(),
                                          sources):
                        lines = source.splitlines()
                        for i, line in enumerate(lines):
                            match = store.search(line)
                            if match and int(match.group(1)) \
                                    in lg.float_slots:
                                assert lines[i - 1].strip() == "else:", \
                                    (where, line)


class TestNonFiniteConstants:
    """Constant folding can bake inf/nan into the graph (1e308 * 1e308
    at level 1+); ``repr`` of those is a bare name, so the emitter must
    bind them instead of inlining — regression for a codegen-only
    NameError."""

    SRC = ("float out[2]; int main() { float x; float y; x = 1e308; "
           "y = x * x; out[0] = y; out[1] = 0.0 - y; return 0; }")

    @pytest.mark.parametrize("level", LEVELS)
    def test_folded_infinity_matches_reference(self, level):
        module = compile_source(self.SRC, "t")
        gm, _ = optimize_module(module, OptLevel(level))
        reference = run_module(gm, engine="reference")
        codegen = run_module(gm, engine="codegen")
        assert_identical(reference, codegen)
        assert codegen.array("out") == [float("inf"), float("-inf")]

    @pytest.mark.parametrize("level", LEVELS)
    def test_folded_nan_agrees_on_every_engine(self, level):
        import math
        src = ("float out[1]; int main() { float x; x = 1e308; "
               "out[0] = (x * x) - (x * x); return 0; }")
        gm, _ = optimize_module(compile_source(src, "t"), OptLevel(level))
        for engine in ENGINES:
            result = run_module(gm, engine=engine)
            assert math.isnan(result.array("out")[0]), (engine, level)


class TestGeneratedSource:
    """Sanity of the emitted Python: locals, structure, cache identity."""

    def _graphs(self):
        return build_module_graphs(compile_source(
            "int x[4]; int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i++) { s += x[i]; } return s; }", "t"))

    def test_source_is_local_variable_code(self):
        gm = self._graphs()
        [source], _consts = emit_sources(generate_module(gm).lowered)
        assert "def _f0(" in source
        # registers are locals, not list indexing
        assert "regs[" not in source
        assert "while True:" in source

    def test_cache_reused_across_runs(self):
        gm = self._graphs()
        first = generate_module(gm)
        assert generate_module(gm) is first
        run_module(gm, {"x": [1, 2, 3, 4]}, engine="codegen")
        assert generate_module(gm) is first

    def test_cache_shares_the_lowered_form(self):
        """Generation reuses (and caches) the lowering — one content key
        governs both."""
        gm = self._graphs()
        generated = generate_module(gm)
        assert lower_module(gm) is generated.lowered

    def test_cache_invalidated_by_node_edit(self):
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        gm = self._graphs()
        first = generate_module(gm)
        graph = gm.graphs["main"]
        node = next(n for n in graph.nodes.values() if n.ops)
        node.ops.append(Instruction(Op.NOP))
        assert generate_module(gm) is not first
        run_module(gm, {"x": [1, 2, 3, 4]}, engine="codegen")

    def test_cache_stripped_on_pickle(self):
        gm = self._graphs()
        generate_module(gm)
        clone = pickle.loads(pickle.dumps(gm))
        assert "_compiled" not in clone.__dict__
        assert gm._compiled[2] is not None
        # the clone still runs (it regenerates lazily)
        assert run_module(clone, {"x": [1, 1, 1, 1]},
                          engine="codegen").return_value == 4

    def test_copy_does_not_share_cache(self):
        gm = self._graphs()
        generate_module(gm)
        assert "_compiled" not in gm.copy().__dict__


class TestEngineSelection:
    def test_codegen_engine_listed(self):
        assert "codegen" in ENGINES

    def test_ensure_engine_accepts_every_tier(self):
        for engine in ENGINES:
            assert ensure_engine(engine) == engine

    def test_ensure_engine_rejects_unknown(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            ensure_engine("turbo")

    def test_explore_runs_on_codegen(self):
        from repro.asip.explore import explore_designs
        spec = get_benchmark("sewha")
        module = compile_benchmark(spec)
        inputs = spec.generate_inputs(0)
        reference = explore_designs(module, inputs, area_budget=2500,
                                    measure_top=2, engine="reference")
        codegen = explore_designs(module, inputs, area_budget=2500,
                                  measure_top=2, engine="codegen")
        assert [p.labels() for p in codegen.measured] == \
            [p.labels() for p in reference.measured]
        assert [p.speedup for p in codegen.measured] == \
            [p.speedup for p in reference.measured]

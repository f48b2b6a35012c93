"""ASIP model tests: cost model, ISA, selection, evaluation, exploration."""

import pytest

from repro.asip import explore
from repro.asip.cost import DEFAULT_COST_MODEL, CostModel
from repro.asip.evaluate import evaluate_isa, evaluate_on_sequential
from repro.asip.explore import explore_designs
from repro.asip.isa import ChainedInstruction, InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import (FusedInstruction, SelectionStats,
                               select_chains)
from repro.cfg.build import build_module_graphs
from repro.errors import AsipError, ReproError
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module

from tests.conftest import FIR_LIKE_SOURCE, fir_like_inputs

MAC_SRC = """
int x[16]; int h[16]; int out[1];
int n = 16;
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i++) { s = s + x[i] * h[i]; }
    out[0] = s;
    return s;
}
"""

MAC_INPUTS = {"x": list(range(16)), "h": [2] * 16}


class TestCostModel:
    def test_chain_area_below_sum_of_units(self):
        cost = DEFAULT_COST_MODEL
        pattern = ("multiply", "add")
        parts = cost.class_area("multiply") + cost.class_area("add")
        assert 0 < cost.chain_area(pattern) <= \
            parts + cost.chain_overhead_area

    def test_chain_delay_is_sum(self):
        cost = DEFAULT_COST_MODEL
        assert cost.chain_delay(("add", "add")) == \
            pytest.approx(2 * cost.class_delay("add"))

    def test_short_int_chain_single_cycle(self):
        assert DEFAULT_COST_MODEL.chain_cycles(("multiply", "add")) == 1

    def test_long_float_chain_multi_cycle(self):
        pattern = ("fload", "fmultiply", "fadd")
        assert DEFAULT_COST_MODEL.chain_cycles(pattern) == 2
        assert DEFAULT_COST_MODEL.cycles_saved_per_traversal(pattern) == 1

    def test_two_float_ops_no_saving(self):
        pattern = ("fload", "fmultiply")  # 10ns > 8ns cycle: 2 cycles
        assert DEFAULT_COST_MODEL.cycles_saved_per_traversal(pattern) == 0

    def test_unknown_class_rejected(self):
        with pytest.raises(AsipError):
            DEFAULT_COST_MODEL.chain_area(("frobnicate", "add"))

    def test_single_op_chain_rejected(self):
        with pytest.raises(AsipError):
            DEFAULT_COST_MODEL.chain_area(("add",))

    def test_custom_cycle_time(self):
        fast = CostModel(cycle_time=3.0)
        assert fast.chain_cycles(("multiply", "add")) > 1


class TestInstructionSet:
    def test_duplicate_pattern_rejected(self):
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        with pytest.raises(AsipError):
            isa.add_chain(ChainedInstruction("mac2", ("multiply", "add")))

    def test_extension_area_sums(self):
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        isa.add_chain(ChainedInstruction("aa", ("add", "add")))
        assert isa.extension_area() == \
            sum(c.area(isa.cost_model) for c in isa.chains)

    def test_from_sequence_names(self):
        chain = ChainedInstruction.from_sequence(("add", "compare"))
        assert chain.pattern == ("add", "compare")
        assert "add" in chain.name

    def test_find(self):
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        assert isa.find(("multiply", "add")).name == "mac"
        assert isa.find(("add", "add")) is None

    def test_short_pattern_rejected(self):
        with pytest.raises(AsipError):
            ChainedInstruction("one", ("add",))


class TestResequence:
    @pytest.mark.parametrize("level", [1, 2])
    def test_resequenced_semantics_match(self, level):
        module = compile_source(FIR_LIKE_SOURCE, "t")
        gm, _ = optimize_module(module, OptLevel(level))
        inputs = fir_like_inputs()
        expected = run_module(gm, inputs)
        seq = resequence_module(gm)
        actual = run_module(seq, inputs)
        assert actual.globals_after == expected.globals_after
        assert actual.return_value == expected.return_value

    def test_one_op_per_node(self):
        module = compile_source(FIR_LIKE_SOURCE, "t")
        gm, _ = optimize_module(module, OptLevel.PIPELINED)
        seq = resequence_module(gm)
        for g in seq.graphs.values():
            for node in g.nodes.values():
                assert len(node.ops) + (1 if node.control else 0) == 1

    def test_input_graph_not_mutated(self):
        module = compile_source(FIR_LIKE_SOURCE, "t")
        gm, _ = optimize_module(module, OptLevel.PIPELINED)
        before = {nid: (list(n.ops), n.control)
                  for nid, n in gm.graphs["main"].nodes.items()}
        resequence_module(gm)
        after = {nid: (list(n.ops), n.control)
                 for nid, n in gm.graphs["main"].nodes.items()}
        assert before == after


class TestSelection:
    def _sequential(self, source):
        module = compile_source(source, "t")
        gm, _ = optimize_module(module, OptLevel.PIPELINED)
        return resequence_module(gm)

    def test_mac_fused(self):
        seq = self._sequential(MAC_SRC)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        _fused, stats = select_chains(seq, isa)
        assert stats.sites.get(("multiply", "add"), 0) >= 1
        assert stats.nodes_removed >= 1

    def test_fused_run_matches_base(self):
        seq = self._sequential(MAC_SRC)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        fused, _stats = select_chains(seq, isa)
        base = run_module(seq, MAC_INPUTS)
        chained = run_module(fused, MAC_INPUTS)
        assert chained.globals_after == base.globals_after
        assert chained.cycles < base.cycles

    def test_longest_pattern_preferred(self):
        seq = self._sequential(MAC_SRC)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("ma", ("multiply", "add")))
        isa.add_chain(ChainedInstruction("lma",
                                         ("load", "multiply", "add")))
        _fused, stats = select_chains(seq, isa)
        if ("load", "multiply", "add") in stats.sites:
            assert stats.sites[("load", "multiply", "add")] >= 1

    def test_no_match_no_change(self):
        seq = self._sequential(MAC_SRC)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("weird", ("divide", "divide")))
        _fused, stats = select_chains(seq, isa)
        assert stats.total_sites == 0
        assert stats.nodes_removed == 0

    def test_fused_instruction_accessors(self):
        seq = self._sequential(MAC_SRC)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        fused, _stats = select_chains(seq, isa)
        fused_ops = [ins for g in fused.graphs.values()
                     for n in g.nodes.values() for ins in n.ops
                     if isinstance(ins, FusedInstruction)]
        assert fused_ops
        for ins in fused_ops:
            assert len(ins.parts) == 2
            assert ins.defs()  # intermediate + final destinations
            assert "mac {" in str(ins)


class TestEvaluation:
    def test_mac_speedup_measured(self):
        module = compile_source(MAC_SRC, "t")
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        evaluation = evaluate_isa(module, isa, MAC_INPUTS)
        assert evaluation.speedup > 1.0
        assert evaluation.chain_issues.get(("multiply", "add"), 0) > 0
        assert evaluation.extension_area == isa.extension_area()

    def test_empty_isa_is_identity(self):
        module = compile_source(MAC_SRC, "t")
        evaluation = evaluate_isa(module, InstructionSet(), MAC_INPUTS)
        assert evaluation.speedup == 1.0
        assert evaluation.cycles_saved == 0

    def test_multicycle_chain_charged(self):
        # fload-fmultiply takes 2 issue cycles: fusing it buys nothing.
        src = """
        float a[8]; float out[8];
        int main() { int i;
            for (i = 0; i < 8; i++) { out[i] = a[i] * 2.0; }
            return 0; }
        """
        module = compile_source(src, "t")
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("lf", ("fload", "fmultiply")))
        evaluation = evaluate_isa(module, isa,
                                  {"a": [1.0] * 8})
        assert evaluation.speedup <= 1.0 + 1e-9


class TestExploration:
    def test_explore_finds_positive_speedup(self):
        module = compile_source(MAC_SRC, "t")
        result = explore_designs(module, MAC_INPUTS, area_budget=2500,
                                 max_candidates=5, measure_top=3)
        assert result.candidates
        assert result.best is not None
        assert result.best.speedup > 1.0

    def test_budget_respected(self):
        module = compile_source(MAC_SRC, "t")
        budget = 1500
        result = explore_designs(module, MAC_INPUTS, area_budget=budget,
                                 max_candidates=5, measure_top=3)
        for point in result.measured:
            assert point.area <= budget

    def test_zero_budget_yields_no_candidates(self):
        module = compile_source(MAC_SRC, "t")
        result = explore_designs(module, MAC_INPUTS, area_budget=0)
        assert result.candidates == []
        assert result.best is None

    @pytest.mark.parametrize("knob, value", [
        ("max_candidates", -2), ("measure_top", -1), ("unroll_factor", 0)])
    def test_out_of_range_knob_refused_before_optimizing(
            self, monkeypatch, knob, value):
        def optimize_module(*args, **kwargs):
            raise AssertionError("optimized before the knobs were checked")

        monkeypatch.setattr(explore, "optimize_module", optimize_module)
        module = compile_source(MAC_SRC, "t")
        with pytest.raises(ReproError, match=rf"\b{knob} is {value}\b"):
            explore_designs(module, MAC_INPUTS, area_budget=2500,
                            **{knob: value})


# The independent oracle: chain selection exactly as it was when it
# rewrote a deep copy of the module in place, kept verbatim apart from
# the names.  ``select_chains`` now matches on the unchanged graph and
# builds the fused module from the matches; the legs below hold the two
# to the same fused programs.
def oracle_select_chains(module, isa):
    """Fuse every match of *isa*'s chains in every graph of *module*.

    Mutates *module* in place and returns :class:`SelectionStats`.
    """
    stats = SelectionStats()
    chains = sorted(isa.chains, key=lambda c: -c.length)
    for graph in module.graphs.values():
        _oracle_select_in_graph(graph, chains, stats)
    return stats


def _oracle_select_in_graph(graph, chains, stats):
    for nid in graph.rpo_order():
        if nid not in graph.nodes:
            continue  # consumed by an earlier fusion
        for chain in chains:
            run = _oracle_match_at(graph, nid, chain.pattern)
            if run is None:
                continue
            _oracle_fuse_run(graph, run, chain)
            key = tuple(chain.pattern)
            stats.sites[key] = stats.sites.get(key, 0) + 1
            stats.nodes_removed += len(run) - 1
            break  # node rewritten; move on


def _oracle_match_at(graph, start, pattern):
    """Try to match *pattern* on the node run starting at *start*."""
    run = [start]
    node = graph.nodes[start]
    if node.control is not None or len(node.ops) != 1:
        return None
    op = node.ops[0]
    if isinstance(op, FusedInstruction) or op.chain_class != pattern[0]:
        return None
    producer = op
    for want in pattern[1:]:
        if len(node.succs) != 1:
            return None
        nxt_id = node.succs[0]
        if nxt_id in run:
            return None  # would wrap around a cycle onto itself
        nxt = graph.nodes[nxt_id]
        if nxt.control is not None or len(nxt.ops) != 1:
            return None
        if len(nxt.preds) != 1:
            return None  # something jumps into the middle of the chain
        consumer = nxt.ops[0]
        if isinstance(consumer, FusedInstruction) \
                or consumer.chain_class != want:
            return None
        if producer.dest is None or producer.dest not in consumer.uses():
            return None
        run.append(nxt_id)
        node = nxt
        producer = consumer
    return run


def _oracle_fuse_run(graph, run, chain):
    head = graph.nodes[run[0]]
    tail = graph.nodes[run[-1]]
    parts = [graph.nodes[nid].ops[0] for nid in run]
    fused = FusedInstruction(chain, parts)
    head.ops = [fused]
    tail_succs = list(tail.succs)
    # Unlink the interior of the run and reconnect head -> tail successors.
    for prev, cur in zip(run, run[1:]):
        graph.remove_edge(prev, cur)
    for nid in run[1:]:
        node = graph.nodes[nid]
        node.ops = []
        for succ in list(node.succs):
            graph.remove_edge(nid, succ)
        graph.remove_node(nid)
    for succ in tail_succs:
        graph.add_edge(run[0], succ)


def _edges(module):
    """Every node's successor and predecessor lists, in node order."""
    return [(name, nid, list(node.succs), list(node.preds))
            for name, graph in module.graphs.items()
            for nid, node in graph.nodes.items()]


def _chain_isa(patterns):
    isa = InstructionSet()
    for pattern in patterns:
        isa.add_chain(ChainedInstruction.from_sequence(pattern))
    return isa


class TestSelectionOracle:
    """The non-mutating matcher + builder against the frozen in-place
    selection: every benchmark at levels 0/1/2, with the full candidate
    pool and 25 seeded random chain subsets (random order too, which
    decides ties between equal-length chains) — ~900 chain sets."""

    SUBSETS = 25

    @pytest.mark.parametrize("level", (0, 1, 2))
    def test_matches_in_place_selection(self, level):
        import random

        from repro.asip.explore import candidate_pool
        from repro.chaining.detect import detect_sequences
        from repro.sim.diskcache import module_digest
        from repro.suite.registry import all_benchmarks
        from repro.suite.runner import compile_benchmark

        rng = random.Random(level)
        checked = 0
        for spec in all_benchmarks():
            gm, _ = optimize_module(compile_benchmark(spec),
                                    OptLevel(level))
            profile = run_module(gm, spec.generate_inputs(0)).profile
            detection = detect_sequences(gm, profile, (2, 3))
            pool = [c.pattern for c in
                    candidate_pool(detection, DEFAULT_COST_MODEL)]
            assert pool, spec.name
            seq = resequence_module(gm)
            base_digest = module_digest(seq)
            base_edges = _edges(seq)
            pattern_sets = [pool] + [
                rng.sample(pool, rng.randint(1, len(pool)))
                for _ in range(self.SUBSETS)]
            for patterns in pattern_sets:
                isa = _chain_isa(patterns)
                expected = seq.copy()
                expected_stats = oracle_select_chains(expected, isa)
                fused, stats = select_chains(seq, isa)
                assert stats == expected_stats, (spec.name, patterns)
                assert module_digest(fused) == module_digest(expected), \
                    (spec.name, patterns)
                assert _edges(fused) == _edges(expected), \
                    (spec.name, patterns)
                assert module_digest(seq) == base_digest, spec.name
                assert _edges(seq) == base_edges, spec.name
                checked += 1
        assert checked == 12 * (self.SUBSETS + 1)

    def test_unfused_instructions_shared(self):
        seq = TestSelection()._sequential(MAC_SRC)
        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        fused, stats = select_chains(seq, isa)
        assert stats.total_sites >= 1
        base_ops = {id(ins) for g in seq.graphs.values()
                    for n in g.nodes.values() for ins in n.ops}
        for graph in fused.graphs.values():
            for node in graph.nodes.values():
                for ins in node.ops:
                    parts = ins.parts if isinstance(ins, FusedInstruction) \
                        else [ins]
                    assert all(id(p) in base_ops for p in parts)

    def test_entry_as_run_interior_rejected(self):
        """A run whose interior is the graph entry cannot drop that node:
        selection raises ``IRError``, as removing the entry always has."""
        from repro.cfg.graph import GraphModule, ProgramGraph
        from repro.errors import IRError
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        from repro.ir.values import Constant, VirtualReg

        def module():
            a, b = VirtualReg("a"), VirtualReg("b")
            graph = ProgramGraph("main", return_type="int")
            entry = graph.new_node()  # b = a + 1, reached only from mul
            entry.ops = [Instruction(Op.ADD, b, (a, Constant(1)))]
            mul = graph.new_node()    # a = b * 3, jumps back to the entry
            mul.ops = [Instruction(Op.MUL, a, (b, Constant(3)))]
            graph.entry = entry.id
            graph.add_edge(entry.id, mul.id)
            graph.add_edge(mul.id, entry.id)
            return GraphModule("t", {"main": graph}, {}, {}, {})

        isa = InstructionSet()
        isa.add_chain(ChainedInstruction("mac", ("multiply", "add")))
        with pytest.raises(IRError, match="entry"):
            oracle_select_chains(module(), isa)
        with pytest.raises(IRError, match="entry"):
            select_chains(module(), isa)

"""Program-graph construction and analysis tests."""

from typing import List, Optional, Set

import pytest

from repro.cfg.build import build_graph, build_module_graphs
from repro.cfg.dataflow import (InstructionMasks, LivenessInfo, RegisterBits,
                                compute_liveness, live_in_masks, node_masks,
                                reaching_uses)
from repro.cfg.dominators import compute_dominators, immediate_dominators
from repro.cfg.graph import ProgramGraph
from repro.cfg.linearize import format_graph, schedule_stats
from repro.cfg.loops import find_natural_loops
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import Constant, VirtualReg


# The set-based liveness solver the bit-mask one replaced, frozen verbatim
# as the oracle the bit-mask solver is held to (here and, at every solve
# during optimization, in tests/test_percolation.py).
def oracle_compute_liveness(graph: ProgramGraph,
                            rpo: Optional[List[int]] = None) -> LivenessInfo:
    """Classic backward worklist liveness over VLIW nodes.

    Within a node all reads happen before all writes, so a register both
    read and written by the same node is *used* (its incoming value matters):
    ``use(n) = reads(n)``, ``def(n) = writes(n)``,
    ``live_in = use ∪ (live_out − def)``.

    *rpo* is the graph's current :meth:`~ProgramGraph.rpo_order`, for
    callers that already hold it; only nodes reachable from the entry are
    solved, the rest keep empty sets.
    """
    nodes = graph.nodes
    info = LivenessInfo(
        live_in={nid: set() for nid in nodes},
        live_out={nid: set() for nid in nodes},
    )
    live_in = info.live_in
    live_out = info.live_out
    # Iterate to fixpoint in reverse RPO for fast convergence, revisiting
    # only nodes with a successor whose live_in changed since their last
    # visit.  Every update is monotone from the empty sets, so this is the
    # same least fixpoint a full round-robin reaches.
    order = list(reversed(graph.rpo_order() if rpo is None else rpo))
    position = {nid: i for i, nid in enumerate(order)}
    facts = []
    for nid in order:
        node = nodes[nid]
        preds = [position[p] for p in node.preds if p in position]
        # Node.uses()/defs() inlined: this loop runs per solve, per node.
        use: Set[VirtualReg] = set()
        defs: Set[VirtualReg] = set()
        for ins in node.ops:
            use.update(ins.uses())
            if ins.dest is not None:
                defs.add(ins.dest)
        if node.control is not None:
            use.update(node.control.uses())
        facts.append((nid, node.succs, preds, use, defs))
    dirty = [True] * len(order)
    changed = True
    while changed:
        changed = False
        for i, (nid, succs, preds, use, defs) in enumerate(facts):
            if not dirty[i]:
                continue
            dirty[i] = False
            out: Set[VirtualReg] = set()
            for succ in succs:
                out |= live_in[succ]
            live_out[nid] = out
            new_in = use | (out - defs)
            if new_in != live_in[nid]:
                live_in[nid] = new_in
                for p in preds:
                    dirty[p] = True
                    changed = changed or p <= i
    return info


def decode_masks(masks, bits):
    """``{node: set of registers}`` from bit masks numbered by *bits*."""
    regs = {bit: reg for reg, bit in bits.items()}
    return {nid: {reg for bit, reg in regs.items() if mask & bit}
            for nid, mask in masks.items()}


def graph_of(source, fn="main"):
    module = compile_source(source, "t")
    return build_graph(module.functions[fn])


LOOP_SRC = """
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i++) { s += i; }
    return s;
}
"""

DIAMOND_SRC = """
int main() {
    int a; int b;
    a = 1;
    if (a > 0) { b = 2; } else { b = 3; }
    return b;
}
"""

NESTED_SRC = """
int main() {
    int i; int j; int s;
    s = 0;
    for (i = 0; i < 4; i++) {
        for (j = 0; j < 5; j++) { s += j; }
    }
    return s;
}
"""


class TestBuild:
    def test_one_op_per_node(self):
        g = graph_of(DIAMOND_SRC)
        for node in g.nodes.values():
            assert len(node.ops) + (1 if node.control else 0) <= 1 or \
                (len(node.ops) == 0 and node.control is not None) or \
                len(node.ops) == 1

    def test_every_node_single_op_or_control(self):
        g = graph_of(LOOP_SRC)
        for node in g.nodes.values():
            assert (len(node.ops), node.control is not None) in \
                ((1, False), (0, True))

    def test_branch_has_two_successors(self):
        g = graph_of(DIAMOND_SRC)
        branches = [n for n in g.nodes.values() if n.is_branch]
        assert branches and all(len(n.succs) == 2 for n in branches)

    def test_return_has_no_successors(self):
        g = graph_of(DIAMOND_SRC)
        rets = [n for n in g.nodes.values() if n.is_return]
        assert rets and all(not n.succs for n in rets)

    def test_jumps_dissolved_into_edges(self):
        g = graph_of(LOOP_SRC)
        for node in g.nodes.values():
            for ins in node.all_instructions():
                assert ins.op is not Op.JMP

    def test_edge_symmetry(self):
        g = graph_of(NESTED_SRC)
        for nid, node in g.nodes.items():
            for s in node.succs:
                assert nid in g.nodes[s].preds
            for p in node.preds:
                assert nid in g.nodes[p].succs

    def test_entry_reachable_everything(self):
        g = graph_of(NESTED_SRC)
        assert g.reachable() == set(g.nodes)

    def test_instructions_cloned_from_module(self):
        module = compile_source(LOOP_SRC, "t")
        g1 = build_graph(module.functions["main"])
        g2 = build_graph(module.functions["main"])
        uids1 = {ins.uid for n in g1.nodes.values()
                 for ins in n.all_instructions()}
        uids2 = {ins.uid for n in g2.nodes.values()
                 for ins in n.all_instructions()}
        assert not (uids1 & uids2)  # separate clones
        origins1 = {ins.origin for n in g1.nodes.values()
                    for ins in n.all_instructions()}
        origins2 = {ins.origin for n in g2.nodes.values()
                    for ins in n.all_instructions()}
        assert origins1 == origins2  # same provenance

    def test_module_graphs_includes_all_functions(self):
        module = compile_source(
            "int f() { return 1; } int main() { return f(); }", "t")
        gm = build_module_graphs(module)
        assert set(gm.graphs) == {"f", "main"}


class TestGraphOps:
    def test_rpo_starts_at_entry(self):
        g = graph_of(LOOP_SRC)
        assert g.rpo_order()[0] == g.entry

    def test_rpo_covers_all_nodes(self):
        g = graph_of(NESTED_SRC)
        assert sorted(g.rpo_order()) == sorted(g.nodes)

    def test_back_edges_in_loop(self):
        g = graph_of(LOOP_SRC)
        assert len(g.back_edges()) == 1

    def test_back_edges_nested(self):
        g = graph_of(NESTED_SRC)
        assert len(g.back_edges()) == 2

    def test_no_back_edges_in_diamond(self):
        g = graph_of(DIAMOND_SRC)
        assert g.back_edges() == []

    def test_copy_is_deep(self):
        g = graph_of(LOOP_SRC)
        dup = g.copy()
        node = next(n for n in dup.nodes.values() if n.ops)
        node.ops.clear()
        assert any(n.ops for n in g.nodes.values())

    def test_copy_then_new_temp_does_not_collide(self):
        # A renamed graph already holds %r/%fr temps; the copy's fresh
        # temps must count on past every one of them.
        g = graph_of(LOOP_SRC)
        node = next(n for n in g.nodes.values() if n.ops)
        node.ops.append(Instruction(Op.MOV, dest=g.new_temp(),
                                    srcs=(Constant(1),)))
        node.ops.append(Instruction(Op.FMOV, dest=g.new_temp(True),
                                    srcs=(Constant(1.0, True),)))
        node.ops.append(Instruction(Op.MOV, dest=VirtualReg("%r7"),
                                    srcs=(Constant(2),)))
        used = {reg.name for n in g.nodes.values()
                for ins in n.all_instructions()
                for reg in ins.defs() + ins.uses()}
        dup = g.copy()
        fresh = [dup.new_temp().name, dup.new_temp(True).name]
        assert fresh == ["%r8", "%fr9"]
        assert not used & set(fresh)

    def test_format_graph_mentions_entry(self):
        g = graph_of(DIAMOND_SRC)
        assert f"entry n{g.entry}" in format_graph(g)

    def test_schedule_stats(self):
        g = graph_of(DIAMOND_SRC)
        stats = schedule_stats(g)
        assert stats.nodes == g.node_count()
        assert stats.max_width == 1
        assert 0 < stats.static_ilp <= 1


class TestLiveness:
    def test_param_live_at_entry_when_used(self):
        module = compile_source(
            "int f(int a) { return a + 1; } int main() { return f(2); }",
            "t")
        g = build_graph(module.functions["f"])
        info = compute_liveness(g)
        assert VirtualReg("a") in info.live_in[g.entry]

    def test_dead_after_last_use(self):
        g = graph_of(DIAMOND_SRC)
        info = compute_liveness(g)
        rets = [n for n in g.nodes.values() if n.is_return]
        for node in rets:
            assert info.live_out[node.id] == set()

    def test_loop_carried_register_live_around_backedge(self):
        g = graph_of(LOOP_SRC)
        info = compute_liveness(g)
        (tail, head) = g.back_edges()[0]
        live_at_head = info.live_in[head]
        names = {r.name for r in live_at_head}
        assert "s" in names and "i" in names

    @pytest.mark.parametrize("bench", ["edge", "pse", "compress"])
    def test_matches_round_robin_over_node_summaries(self, bench):
        """The solver's inlined per-node use/def facts and its dirty-node
        worklist reach the same fixpoint as a plain round-robin solve
        over ``Node.uses()``/``Node.defs()``, on optimized graphs."""
        from repro.opt.pipeline import OptLevel, optimize_module
        from repro.suite.registry import get_benchmark
        from repro.suite.runner import compile_benchmark
        module, _ = optimize_module(
            compile_benchmark(get_benchmark(bench)), OptLevel.RENAMED)
        for graph in module.graphs.values():
            info = compute_liveness(graph)
            reachable = set(graph.rpo_order())
            live_in = {nid: set() for nid in graph.nodes}
            changed = True
            while changed:
                changed = False
                for nid in reachable:
                    node = graph.nodes[nid]
                    out = set().union(*(live_in[s] for s in node.succs))
                    new_in = node.uses() | (out - node.defs())
                    if new_in != live_in[nid]:
                        live_in[nid], changed = new_in, True
            assert {n: info.live_in[n] for n in reachable} == \
                {n: live_in[n] for n in reachable}

    @pytest.mark.parametrize("src", [LOOP_SRC, DIAMOND_SRC, NESTED_SRC],
                             ids=["loop", "diamond", "nested"])
    def test_decoder_matches_frozen_set_solver(self, src):
        g = graph_of(src)
        info = compute_liveness(g)
        want = oracle_compute_liveness(g)
        assert info.live_in == want.live_in
        assert info.live_out == want.live_out

    def test_unreachable_nodes_stay_empty(self):
        g = ProgramGraph("f")
        entry, dead = g.new_node(), g.new_node()
        a, b = VirtualReg("a"), VirtualReg("b")
        entry.control = Instruction(Op.RET, srcs=(a,))
        # dead -> entry: its successor has a live-in, but dead is never
        # solved, so both of its sets stay empty.
        dead.ops.append(Instruction(Op.ADD, dest=b, srcs=(a, a)))
        g.add_edge(dead.id, entry.id)
        g.entry = entry.id
        info = compute_liveness(g)
        want = oracle_compute_liveness(g)
        assert info.live_in == want.live_in == {entry.id: {a}, dead.id: set()}
        assert info.live_out == want.live_out == {entry.id: set(),
                                                  dead.id: set()}

    def test_masks_fill_def_masks_of_every_node(self):
        g = ProgramGraph("f")
        entry, dead = g.new_node(), g.new_node()
        a, b = VirtualReg("a"), VirtualReg("b")
        entry.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        entry.control = Instruction(Op.RET, srcs=(a,))
        dead.ops.append(Instruction(Op.MOV, dest=b, srcs=(Constant(2),)))
        g.add_edge(dead.id, entry.id)
        g.entry = entry.id
        masks = InstructionMasks()
        bits = masks.bits
        live_in = live_in_masks(g, g.rpo_order(), masks)
        uses, defs = node_masks(g, masks)
        # The return reads a before the node's own write lands.
        assert live_in == {entry.id: bits[a], dead.id: 0}
        assert uses == {entry.id: bits[a], dead.id: 0}
        assert defs == {entry.id: bits[a], dead.id: bits[b]}

    def test_register_bits_number_on_first_lookup(self):
        bits = RegisterBits()
        a, b = VirtualReg("a"), VirtualReg("b", True)
        assert (bits[b], bits[a], bits[b]) == (1, 2, 1)
        assert bits.get(VirtualReg("c"), 0) == 0 and len(bits) == 2

    def test_reaching_uses_finds_consumer(self):
        g = graph_of("int main() { int a; a = 2; return a * 3; }")
        consumers = reaching_uses(g)
        movs = [ins for n in g.nodes.values() for ins in n.ops
                if ins.op is Op.MOV and ins.dest and ins.dest.name == "a"]
        # Declaration zero-init (killed before use) plus the real store.
        assert len(movs) == 2
        zero_init, real_def = movs
        assert consumers[zero_init.uid] == []  # killed by the second mov
        assert consumers[real_def.uid]         # feeds the multiply


class TestDominators:
    def test_entry_dominates_all(self):
        g = graph_of(NESTED_SRC)
        doms = compute_dominators(g)
        for nid in g.nodes:
            assert g.entry in doms[nid]

    def test_entry_has_no_idom(self):
        g = graph_of(LOOP_SRC)
        idom = immediate_dominators(g)
        assert idom[g.entry] is None

    def test_branch_dominates_both_arms_not_join(self):
        g = graph_of(DIAMOND_SRC)
        doms = compute_dominators(g)
        branch = next(n for n in g.nodes.values() if n.is_branch)
        t, f = branch.succs
        assert branch.id in doms[t] and branch.id in doms[f]
        # The join node is dominated by the branch but by neither arm.
        joins = [nid for nid, n in g.nodes.items() if len(n.preds) == 2]
        assert joins
        join = joins[0]
        assert branch.id in doms[join]
        assert not (t in doms[join] and f in doms[join])


class TestLoops:
    def test_single_loop_found(self):
        g = graph_of(LOOP_SRC)
        loops = find_natural_loops(g)
        assert len(loops) == 1
        assert len(loops[0].latches) == 1

    def test_nested_loops_found_inner_first(self):
        g = graph_of(NESTED_SRC)
        loops = find_natural_loops(g)
        assert len(loops) == 2
        assert loops[0].size < loops[1].size
        assert loops[0].is_innermost(loops)
        assert not loops[1].is_innermost(loops)

    def test_inner_body_subset_of_outer(self):
        g = graph_of(NESTED_SRC)
        inner, outer = find_natural_loops(g)
        assert inner.body < outer.body

    def test_loop_exits_outside_body(self):
        g = graph_of(LOOP_SRC)
        (loop,) = find_natural_loops(g)
        for e in loop.exits(g):
            assert e not in loop.body

    def test_loop_with_call_detected(self):
        g = graph_of("""
        int f() { return 1; }
        int main() { int i; int s; s = 0;
            for (i = 0; i < 3; i++) { s += f(); } return s; }
        """)
        (loop,) = find_natural_loops(g)
        assert loop.contains_call(g)

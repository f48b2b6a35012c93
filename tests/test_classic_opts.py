"""Tests for the classic cleanups: fold, propagate, coalesce, DCE."""

import pytest

from repro.cfg.build import build_graph
from repro.cfg.graph import ProgramGraph
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import Constant, VirtualReg
from repro.opt.classic import (coalesce_moves, constant_fold,
                               copy_propagate, dead_code_elimination,
                               run_cleanups, straight_chains)
from repro.sim.machine import run_module
from repro.cfg.build import build_module_graphs
from repro.opt.pipeline import OptLevel, optimize_module

from tests.test_cfg import oracle_compute_liveness


# The set-based DCE the bit-mask one replaced, frozen verbatim (over the
# frozen set-based liveness solver) as its oracle; tests/test_percolation.py
# holds every DCE call of a full optimization to it.
def oracle_dead_code_elimination(graph: ProgramGraph) -> int:
    """Remove pure operations whose destination is dead.

    Iterates liveness to fixpoint (removing one layer of dead code can kill
    another).  Stores, calls and control are never removed.  Returns the
    total number of deleted operations.
    """
    total = 0
    while True:
        liveness = oracle_compute_liveness(graph)
        removed = 0
        for nid, node in graph.nodes.items():
            live_out = liveness.live_out[nid]
            survivors = []
            for ins in node.ops:
                if ins.dest is None or ins.has_side_effects or ins.is_call:
                    survivors.append(ins)
                elif ins.dest in live_out:
                    survivors.append(ins)
                else:
                    removed += 1
            node.ops = survivors
        total += removed
        if removed == 0:
            return total


def node_ops(graph):
    """``{node: rendered ops}``: what DCE decides, uid-free."""
    return {nid: [str(ins) for ins in node.ops]
            for nid, node in graph.nodes.items()}


def graph_of(source):
    module = compile_source(source, "t")
    return build_graph(module.functions["main"]), module


def all_ops(graph):
    return [ins for n in graph.nodes.values() for ins in n.ops]


def count(graph, op):
    return sum(1 for ins in all_ops(graph) if ins.op is op)


class TestStraightChains:
    def test_chains_partition_nodes(self):
        g, _ = graph_of("""
        int main() { int a; a = 1;
            if (a > 0) { a = 2; } else { a = 3; }
            return a; }
        """)
        chains = straight_chains(g)
        seen = [nid for chain in chains for nid in chain]
        assert sorted(seen) == sorted(g.nodes)
        assert len(seen) == len(set(seen))

    def test_chain_is_connected(self):
        g, _ = graph_of("int main() { int a; a = 1; a = a + 2; "
                        "return a; }")
        for chain in straight_chains(g):
            for a, b in zip(chain, chain[1:]):
                assert g.nodes[a].succs == [b]


class TestConstantFold:
    def test_folds_arithmetic(self):
        g, _ = graph_of("int main() { return 2 + 3 * 4; }")
        folded = constant_fold(g)
        assert folded >= 1
        movs = [ins for ins in all_ops(g) if ins.op is Op.MOV]
        assert any(isinstance(m.srcs[0], Constant)
                   and m.srcs[0].value == 12 for m in movs)

    def test_fold_propagate_iteration_reaches_final_value(self):
        g, _ = graph_of("int main() { return 2 + 3 * 4; }")
        run_cleanups(g)
        assert count(g, Op.MUL) == 0
        assert count(g, Op.ADD) == 0

    def test_division_by_zero_not_folded(self):
        g, _ = graph_of("int main() { int z; z = 0; return 5 / 0; }")
        before = count(g, Op.DIV)
        constant_fold(g)
        assert count(g, Op.DIV) == before

    def test_float_fold(self):
        g, _ = graph_of("float out[1]; int main() "
                        "{ out[0] = 1.5 * 4.0; return 0; }")
        constant_fold(g)
        assert count(g, Op.FMUL) == 0

    def test_compare_fold(self):
        g, _ = graph_of("int main() { return 3 < 5; }")
        constant_fold(g)
        assert count(g, Op.CMPLT) == 0


class TestCopyPropagate:
    def test_constant_propagates(self):
        g, _ = graph_of("int main() { int a; int b; a = 7; b = a + 1; "
                        "return b; }")
        rewritten = copy_propagate(g)
        assert rewritten >= 1
        adds = [ins for ins in all_ops(g) if ins.op is Op.ADD]
        assert any(isinstance(s, Constant) and s.value == 7
                   for ins in adds for s in ins.srcs)

    def test_propagation_stops_at_redefinition(self):
        g, _ = graph_of("""
        int main() { int a; int b; a = 7; a = 9; b = a + 1; return b; }
        """)
        copy_propagate(g)
        adds = [ins for ins in all_ops(g) if ins.op is Op.ADD]
        values = [s.value for ins in adds for s in ins.srcs
                  if isinstance(s, Constant) and s.value in (7, 9)]
        assert 7 not in values and 9 in values


class TestCoalesce:
    def test_temp_mov_var_coalesced(self):
        g, _ = graph_of("int x[2]; int main() { int a; a = x[0] * 3; "
                        "return a; }")
        before = count(g, Op.MOV)
        removed = coalesce_moves(g)
        assert removed >= 1
        assert count(g, Op.MOV) == before - removed
        mul = next(ins for ins in all_ops(g) if ins.op is Op.MUL)
        assert mul.dest.name == "a"

    def test_increment_pattern_coalesced(self):
        g, _ = graph_of("int main() { int i; i = 0; i = i + 1; "
                        "return i; }")
        removed = coalesce_moves(g)
        assert removed >= 1
        add = next(ins for ins in all_ops(g) if ins.op is Op.ADD)
        assert add.dest.name == "i"
        assert any(r.name == "i" for r in add.uses())

    def test_semantics_preserved_by_cleanups(self):
        src = """
        int x[8];
        int main() { int i; int s; s = 0;
            for (i = 0; i < 8; i++) { s = s + x[i] * 3; }
            return s; }
        """
        module = compile_source(src, "t")
        inputs = {"x": [5, -2, 7, 1, 0, 3, -9, 4]}
        gm = build_module_graphs(module)
        expected = run_module(gm, inputs).return_value
        gm2 = build_module_graphs(module)
        for g in gm2.graphs.values():
            run_cleanups(g)
        assert run_module(gm2, inputs).return_value == expected


class TestDCE:
    def test_dead_pure_op_removed(self):
        g, _ = graph_of("int main() { int a; int b; a = 1; b = a * 2; "
                        "return a; }")
        removed = dead_code_elimination(g)
        assert removed >= 1
        assert count(g, Op.MUL) == 0

    def test_transitively_dead_removed(self):
        g, _ = graph_of("int main() { int a; int b; int c; a = 1; "
                        "b = a + 1; c = b + 1; return a; }")
        dead_code_elimination(g)
        assert count(g, Op.ADD) == 0

    def test_stores_never_removed(self):
        g, _ = graph_of("int out[1]; int main() { out[0] = 5; "
                        "return 0; }")
        dead_code_elimination(g)
        assert count(g, Op.STORE) == 1

    def test_calls_never_removed(self):
        g, _ = graph_of("""
        int out[1];
        int f() { out[0] = 1; return 2; }
        int main() { int unused; unused = f(); return 0; }
        """)
        dead_code_elimination(g)
        assert count(g, Op.CALL) == 1

    def test_live_loop_carried_not_removed(self):
        g, _ = graph_of("""
        int main() { int i; int s; s = 0;
            for (i = 0; i < 4; i++) { s = s + i; }
            return s; }
        """)
        dead_code_elimination(g)
        assert count(g, Op.ADD) >= 2  # i increment and s accumulation


    def test_pure_op_in_unreachable_node_removed(self):
        g = ProgramGraph("f")
        entry, dead = g.new_node(), g.new_node()
        a, b = VirtualReg("a"), VirtualReg("b")
        entry.control = Instruction(Op.RET, srcs=(a,))
        # a is live into the successor, but nothing is live out of a node
        # the entry never reaches.
        dead.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        dead.ops.append(Instruction(Op.ADD, dest=b, srcs=(a, a)))
        g.add_edge(dead.id, entry.id)
        g.entry = entry.id
        twin = g.copy()
        assert dead_code_elimination(g) == 2
        assert oracle_dead_code_elimination(twin) == 2
        assert node_ops(g) == node_ops(twin) == {entry.id: [], dead.id: []}

    @pytest.mark.parametrize("src", [
        "int main() { int a; int b; a = 1; b = a * 2; return a; }",
        "int main() { int i; int s; int t; s = 0; t = 0;"
        " for (i = 0; i < 4; i++) { s = s + i; t = t + s; } return s; }",
    ], ids=["straight", "loop"])
    def test_matches_frozen_set_dce(self, src):
        g, _ = graph_of(src)
        twin = g.copy()
        assert dead_code_elimination(g) == oracle_dead_code_elimination(twin)
        assert node_ops(g) == node_ops(twin)


class TestRunCleanups:
    def test_reaches_fixpoint(self):
        g, _ = graph_of("int main() { int a; int b; a = 2 * 3; "
                        "b = a + 0 * 5; return b; }")
        stats = run_cleanups(g)
        assert stats["folded"] >= 1
        # A second invocation changes nothing.
        again = run_cleanups(g)
        assert all(v == 0 for v in again.values())

"""Percolation-scheduling tests: legality, compaction, renaming, delete."""

import importlib.util
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.cfg import dataflow
from repro.cfg.build import build_graph, build_module_graphs
from repro.cfg.dataflow import InstructionMasks
from repro.cfg.graph import Node, ProgramGraph
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.opt import classic, percolation, pipeline
from repro.opt.alias import memory_conflict
from repro.opt.percolation import (_BLOCKED, _LEGAL, _RENAME, TRAPPING_OPS,
                                   CompactionStats, compact_graph,
                                   delete_empty_nodes)
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module
from repro.suite.registry import benchmark_names, get_benchmark
from repro.suite.runner import compile_benchmark

from tests.conftest import FIR_LIKE_SOURCE, fir_like_inputs
from tests.test_cfg import decode_masks, oracle_compute_liveness
from tests.test_classic_opts import node_ops, oracle_dead_code_elimination

_REGEN = Path(__file__).parent / "golden" / "regen_optimized_graphs.py"
_spec = importlib.util.spec_from_file_location("regen_optimized_graphs",
                                               _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


# The set-based compaction pass the bit-mask one replaced, frozen verbatim
# apart from its names, the unused carried liveness and instruction fact
# table it is handed, and the frozen set-based liveness solver it calls.
# Patched in for ``_compaction_pass`` it gives the set-based result the
# edge cases below are compared with.
def frozen_check_target(op: Instruction, op_uses: Set[VirtualReg],
                        mem: bool, unsafe: bool, target: Node,
                        other_succs: List[int],
                        live_in: Dict[int, Set[VirtualReg]],
                        max_width: Optional[int]) -> str:
    """Classify hoisting *op* into *target* (rules 2-4, 6, 7).

    *op_uses*, *mem* (a load or store) and *unsafe* (trapping or a store)
    are the op's own facts, computed once for all targets; *other_succs*
    are the target's successors other than the source node, so a
    non-empty list makes the hoist speculative.  Rule 1 and the renaming
    legality are the caller's.
    """
    if max_width is not None and len(target.ops) >= max_width:
        return _BLOCKED
    if unsafe and other_succs:
        return _BLOCKED

    dest = op.dest
    verdict = _LEGAL
    for existing in target.ops:
        written = existing.dest
        if written is not None:
            if written in op_uses:
                return _BLOCKED  # true dependence
            if written == dest:
                verdict = _RENAME  # output dependence: renaming can fix it
        if mem and memory_conflict(op, existing):
            return _BLOCKED

    if dest is not None and verdict is _LEGAL:
        for succ in other_succs:
            if dest in live_in[succ]:
                return _RENAME
    return verdict


def frozen_compaction_pass(graph: ProgramGraph, order: List[int],
                           _carried, call_nodes: Set[int], _facts,
                           rename: bool,
                           max_width: Optional[int],
                           stats: CompactionStats) -> bool:
    nodes = graph.nodes
    live_in = oracle_compute_liveness(graph, order).live_in
    rpo_index = {nid: i for i, nid in enumerate(order)}
    moved_any = False

    for nid in order:
        node = nodes[nid]
        if not node.ops or not node.preds:
            continue
        preds = list(dict.fromkeys(node.preds))
        # Forward motion only (termination + no cycling around loops); a
        # self-loop is the degenerate backward edge.  A predecessor
        # holding a call blocks every op (rule 1).
        here = rpo_index[nid]
        if any(rpo_index.get(p, -1) >= here or p in call_nodes
               for p in preds):
            continue
        targets = [(nodes[p], [s for s in nodes[p].succs if s != nid])
                   for p in preds]
        # Rule 5 by counting: how many reads of each register the node's
        # instructions make, kept current as ops leave it.
        readers: Dict[VirtualReg, int] = {}
        for ins in node.all_instructions():
            for reg in ins.uses():
                readers[reg] = readers.get(reg, 0) + 1

        for op in list(node.ops):
            if op.op is Op.CALL:
                continue
            dest = op.dest
            uses = op.uses()
            if dest is not None and readers.get(dest, 0) > uses.count(dest):
                continue  # another instruction here reads the old value
            store = op.is_store
            if store and any(memory_conflict(op, other)
                             for other in node.ops if other is not op):
                continue
            op_uses = set(uses)
            mem = store or op.is_load
            unsafe = store or op.op in TRAPPING_OPS
            needs_rename = False
            for target, other_succs in targets:
                verdict = frozen_check_target(op, op_uses, mem, unsafe,
                                              target, other_succs, live_in,
                                              max_width)
                if verdict is _BLOCKED:
                    break
                if verdict is _RENAME:
                    needs_rename = True
            else:
                # Renaming produces a speculatively executed copy, so the
                # op must be pure and non-trapping with a destination.
                if needs_rename and not (
                        rename and dest is not None and not unsafe
                        and not op.has_side_effects):
                    continue
                for reg in uses:
                    readers[reg] -= 1
                if needs_rename:
                    frozen_hoist_renamed(graph, op, node, targets,
                                         live_in, readers, stats)
                else:
                    node.ops.remove(op)
                    first = True
                    for target, _ in targets:
                        target.ops.append(op if first else op.clone())
                        first = False
                    if dest is not None:
                        live_in[nid].add(dest)
                    stats.moves += 1
                    stats.copies += len(preds) - 1
                moved_any = True
    return moved_any


def frozen_hoist_renamed(graph: ProgramGraph, op: Instruction, node: Node,
                         targets: List[Tuple[Node, List[int]]],
                         live_in: Dict[int, Set[VirtualReg]],
                         readers: Dict[VirtualReg, int],
                         stats: CompactionStats) -> None:
    """Hoist ``r' = op ...`` into every target, leave ``mov dest, r'``."""
    fresh = graph.new_temp(op.dest.is_float)
    for target, _ in targets:
        clone = op.clone()
        clone.dest = fresh
        target.ops.append(clone)
    mov_op = Op.FMOV if op.dest.is_float else Op.MOV
    index = node.ops.index(op)
    node.ops[index] = Instruction(
        mov_op, dest=op.dest, srcs=(fresh,),
        origin=op.origin, loc=op.loc)
    live_in[node.id].add(fresh)
    readers[fresh] = readers.get(fresh, 0) + 1
    stats.renames += 1
    stats.copies += len(targets) - 1



def module_graphs(source):
    module = compile_source(source, "t")
    return build_module_graphs(module)


def run_value(gm, inputs=None):
    return run_module(gm, inputs)


class TestCompactionSemantics:
    """Compaction must never change observable behaviour."""

    CASES = [
        ("straight line",
         "int main() { int a; int b; a = 3; b = a * 2 + 1; return b; }",
         None),
        ("diamond",
         "int x[4]; int main() { int a; a = x[0];"
         " if (a > 0) { a = a * 2; } else { a = a - 1; } return a; }",
         {"x": [5, 0, 0, 0]}),
        ("loop with accumulator",
         "int x[8]; int main() { int i; int s; s = 0;"
         " for (i = 0; i < 8; i++) { s += x[i]; } return s; }",
         {"x": [1, 2, 3, 4, 5, 6, 7, 8]}),
        ("memory traffic",
         "int a[4]; int b[4]; int main() { int i;"
         " for (i = 0; i < 4; i++) { a[i] = i * 3; b[i] = a[i] + 1; }"
         " return b[3]; }",
         None),
        ("guarded store",
         "int out[4]; int x[4]; int main() { int i;"
         " for (i = 0; i < 4; i++) { if (x[i] > 0) { out[i] = x[i]; } }"
         " return out[0] + out[1] + out[2] + out[3]; }",
         {"x": [3, -1, 0, 9]}),
    ]

    @pytest.mark.parametrize("label,source,inputs",
                             CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("rename", [False, True])
    def test_behaviour_preserved(self, label, source, inputs, rename):
        gm = module_graphs(source)
        expected = run_value(gm, inputs)
        gm2 = module_graphs(source)
        for g in gm2.graphs.values():
            compact_graph(g, rename=rename)
        actual = run_value(gm2, inputs)
        assert actual.return_value == expected.return_value
        assert actual.globals_after == expected.globals_after

    @pytest.mark.parametrize("rename", [False, True])
    def test_fir_like_kernel_preserved(self, rename):
        gm = module_graphs(FIR_LIKE_SOURCE)
        inputs = fir_like_inputs()
        expected = run_value(gm, inputs)
        gm2 = module_graphs(FIR_LIKE_SOURCE)
        for g in gm2.graphs.values():
            compact_graph(g, rename=rename)
        actual = run_value(gm2, inputs)
        assert actual.globals_after == expected.globals_after


class TestCompactionEffect:
    def test_compaction_reduces_cycles(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        inputs = fir_like_inputs()
        before = run_value(gm, inputs).cycles
        for g in gm.graphs.values():
            compact_graph(g)
        after = run_value(gm, inputs).cycles
        assert after < before

    def test_nodes_become_wider(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        g = gm.graphs["main"]
        compact_graph(g)
        assert max(len(n.ops) for n in g.nodes.values()) >= 2

    def test_width_limit_respected(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        g = gm.graphs["main"]
        compact_graph(g, max_width=2)
        assert max(len(n.ops) for n in g.nodes.values()) <= 2

    def test_stats_populated(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        stats = compact_graph(gm.graphs["main"])
        assert stats.moves > 0
        assert stats.passes >= 1
        assert stats.deleted_nodes > 0

    def test_renaming_only_at_level2(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        stats_plain = compact_graph(gm.graphs["main"], rename=False)
        assert stats_plain.renames == 0
        gm2 = module_graphs(FIR_LIKE_SOURCE)
        stats_renamed = compact_graph(gm2.graphs["main"], rename=True)
        assert stats_renamed.renames > 0

    def test_idempotent_at_fixpoint(self):
        gm = module_graphs(FIR_LIKE_SOURCE)
        g = gm.graphs["main"]
        compact_graph(g)
        second = compact_graph(g)
        assert second.moves == 0 and second.renames == 0


class TestPassCap:
    """``compact_graph(max_passes=64)`` stops short of the fixpoint on
    exactly one compaction of the suite: smooth at level 2, whose
    compaction is still moving ops at pass 64 and reaches its fixpoint
    12 moves later.  Every other level-1/2 compaction converges first."""

    def test_smooth_level2_is_the_only_capped_compaction(self):
        capped = {}
        for name in benchmark_names():
            module = compile_benchmark(get_benchmark(name))
            for level in (OptLevel.PIPELINED, OptLevel.RENAMED):
                gm, report = optimize_module(module, level)
                for fn, stats in report.compaction.items():
                    assert stats.passes <= 64, (name, level, fn)
                    if stats.passes == 64:
                        capped[(name, int(level), fn)] = gm.graphs[fn]
        assert list(capped) == [("smooth", 2, "main")]
        rest = compact_graph(capped[("smooth", 2, "main")], rename=True)
        assert rest.moves == 12


class TestLegalityRules:
    def _two_node_graph(self):
        """entry node -> second node, built by hand."""
        g = ProgramGraph("f")
        n1 = g.new_node()
        n2 = g.new_node()
        ret = g.new_node()
        ret.control = Instruction(Op.RET, srcs=(VirtualReg("r"),))
        g.add_edge(n1.id, n2.id)
        g.add_edge(n2.id, ret.id)
        g.entry = n1.id
        return g, n1, n2, ret

    def test_true_dependence_blocks_motion(self):
        g, n1, n2, _ret = self._two_node_graph()
        a, r = VirtualReg("a"), VirtualReg("r")
        n1.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        n2.ops.append(Instruction(Op.ADD, dest=r, srcs=(a, Constant(2))))
        compact_graph(g)
        # The add must not join the node defining its operand.
        assert len(n1.ops) == 1
        assert n2.ops or any(
            ins.op is Op.ADD for ins in n1.ops)  # stayed put

    def test_independent_op_moves_up(self):
        g, n1, n2, ret = self._two_node_graph()
        a, b, r = VirtualReg("a"), VirtualReg("b"), VirtualReg("r")
        n1.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        n2.ops.append(Instruction(Op.MOV, dest=b, srcs=(Constant(2),)))
        n2.ops.append(Instruction(Op.ADD, dest=r, srcs=(a,
                                                        Constant(3))))
        compact_graph(g)
        # b's definition is independent and should have moved into n1.
        assert any(ins.dest == b for ins in n1.ops)

    def test_store_does_not_speculate(self):
        src = """
        int out[2]; int x[2];
        int main() {
            if (x[0] > 0) { out[0] = 7; }
            return out[0];
        }
        """
        gm = module_graphs(src)
        g = gm.graphs["main"]
        compact_graph(g)
        # The store must stay strictly below the branch: on every path from
        # the entry, the branch comes first.
        branch_node = next(n for n in g.nodes.values() if n.is_branch)
        store_nodes = [n for n in g.nodes.values()
                       if any(ins.is_store for ins in n.ops)]
        assert store_nodes
        # A store node must not be an ancestor of the branch node, and must
        # not be the branch node's own node-set predecessor side.
        for sn in store_nodes:
            assert sn.id not in {branch_node.id} | set(branch_node.preds)

    def test_load_does_not_speculate_past_branch(self):
        src = """
        int x[2]; int idx[1];
        int main() {
            int v; v = 0;
            if (idx[0] < 2) { v = x[idx[0]]; }
            return v;
        }
        """
        gm = module_graphs(src)
        inputs = {"idx": [5], "x": [1, 2]}  # out-of-bounds if speculated
        expected = run_value(gm, inputs)
        gm2 = module_graphs(src)
        for graph in gm2.graphs.values():
            compact_graph(graph, rename=True)
        actual = run_value(gm2, inputs)  # must not fault
        assert actual.return_value == expected.return_value


class TestDeleteEmptyNodes:
    def test_empty_node_spliced(self):
        g = ProgramGraph("f")
        a, empty, b = g.new_node(), g.new_node(), g.new_node()
        a.ops.append(Instruction(Op.MOV, dest=VirtualReg("x"),
                                 srcs=(Constant(1),)))
        b.control = Instruction(Op.RET, srcs=())
        g.add_edge(a.id, empty.id)
        g.add_edge(empty.id, b.id)
        g.entry = a.id
        assert delete_empty_nodes(g) == 1
        assert g.nodes[a.id].succs == [b.id]

    def test_empty_entry_moves_entry(self):
        g = ProgramGraph("f")
        empty, b = g.new_node(), g.new_node()
        b.control = Instruction(Op.RET, srcs=())
        g.add_edge(empty.id, b.id)
        g.entry = empty.id
        delete_empty_nodes(g)
        assert g.entry == b.id

    def test_branch_node_kept(self):
        g = ProgramGraph("f")
        cond = VirtualReg("c")
        a, br, t, f = (g.new_node() for _ in range(4))
        a.ops.append(Instruction(Op.MOV, dest=cond, srcs=(Constant(1),)))
        br.control = Instruction(Op.BR, srcs=(cond,), true_label="x",
                                 false_label="y")
        t.control = Instruction(Op.RET, srcs=())
        f.control = Instruction(Op.RET, srcs=())
        g.add_edge(a.id, br.id)
        g.add_edge(br.id, t.id)
        g.add_edge(br.id, f.id)
        g.entry = a.id
        assert delete_empty_nodes(g) == 0
        assert br.id in g.nodes

    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_call_splices_every_empty_node(self, reverse):
        """An empty entry, a chain of three empty nodes and the empty node
        both arms of a branch reach all go in one call, whichever order
        the scan meets them in; a second call finds nothing left."""
        g, role = _spliceable_graph(reverse)
        assert delete_empty_nodes(g) == 6
        assert delete_empty_nodes(g) == 0
        assert set(g.nodes) == {role[r] for r in ("a", "br", "f", "ret")}
        assert g.entry == role["a"]
        assert g.nodes[role["a"]].succs == [role["br"]]
        assert g.nodes[role["br"]].succs == [role["ret"], role["f"]]
        assert g.nodes[role["f"]].succs == [role["ret"]]
        assert sorted(g.nodes[role["ret"]].preds) == sorted(
            [role["br"], role["f"]])


#: Node roles of :func:`_spliceable_graph`, in creation order.
_ROLES = ("entry", "a", "c1", "c2", "c3", "br", "t", "f", "j", "ret")


def _spliceable_graph(reverse: bool = False):
    """``entry -> a -> c1 -> c2 -> c3 -> br``, ``br -> t | f``,
    ``t, f -> j -> ret``, where entry, c1-c3, t and j are empty.

    Returns the graph and each role's node id; *reverse* creates the
    nodes in reverse role order, so ids (the scan order) run backwards.
    """
    x, y = VirtualReg("x"), VirtualReg("y")
    g = ProgramGraph("f")
    node = {r: g.new_node() for r in (_ROLES[::-1] if reverse else _ROLES)}
    node["a"].ops.append(Instruction(Op.MOV, dest=x, srcs=(Constant(1),)))
    node["br"].control = Instruction(Op.BR, srcs=(x,), true_label="t",
                                     false_label="f")
    node["f"].ops.append(Instruction(Op.MOV, dest=y, srcs=(Constant(2),)))
    node["ret"].control = Instruction(Op.RET, srcs=(x,))
    for src, dst in (("entry", "a"), ("a", "c1"), ("c1", "c2"),
                     ("c2", "c3"), ("c3", "br"), ("br", "t"), ("br", "f"),
                     ("t", "j"), ("f", "j"), ("j", "ret")):
        g.add_edge(node[src].id, node[dst].id)
    g.entry = node["entry"].id
    return g, {r: n.id for r, n in node.items()}


class TestKeptOrder:
    """:func:`compact_graph` computes the reverse postorder once and, after
    a pass that deletes nodes, drops their ids: every pass must still get
    exactly what :meth:`ProgramGraph.rpo_order` would give."""

    @staticmethod
    def _check_orders(monkeypatch):
        real_pass = percolation._compaction_pass
        real_delete = percolation.delete_empty_nodes
        counts = {"passes": 0, "deletions": 0}

        def checked_pass(graph, order, *rest):
            assert order == graph.rpo_order()
            counts["passes"] += 1
            return real_pass(graph, order, *rest)

        def checked_delete(graph):
            before = graph.rpo_order()
            deleted = real_delete(graph)
            if deleted:
                assert [nid for nid in before if nid in graph.nodes] == \
                    graph.rpo_order()
                counts["deletions"] += 1
            return deleted

        monkeypatch.setattr(percolation, "_compaction_pass", checked_pass)
        monkeypatch.setattr(percolation, "delete_empty_nodes",
                            checked_delete)
        return counts

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_suite_levels_1_and_2(self, bench, monkeypatch):
        counts = self._check_orders(monkeypatch)
        module = compile_benchmark(get_benchmark(bench))
        for level in (OptLevel.PIPELINED, OptLevel.RENAMED):
            optimize_module(module, level)
        assert counts["passes"] > 0 and counts["deletions"] > 0

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("rename", [False, True])
    def test_hand_built_graph(self, reverse, rename, monkeypatch):
        counts = self._check_orders(monkeypatch)
        graph, _role = _spliceable_graph(reverse)
        compact_graph(graph, rename=rename)
        assert counts["deletions"] > 0


def _defs_of(node: Node, bits) -> int:
    mask = 0
    for ins in node.ops:
        if ins.dest is not None:
            mask |= bits[ins.dest]
    return mask


def _uses_of(node: Node, bits) -> int:
    mask = 0
    for ins in node.all_instructions():
        for reg in ins.uses():
            mask |= bits[reg]
    return mask


class TestBitMaskOracle:
    """Every solve and every DCE call of a full optimization checked
    against the frozen set-based code, and at every compaction pass's
    start and end the carried use and def masks of every node against a
    fresh derivation."""

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_levels_1_and_2_match_frozen_set_code(self, bench, monkeypatch):
        real_masks = classic.live_in_masks
        real_solve = percolation.solve_live_in
        real_pass = percolation._compaction_pass
        real_dce = classic.dead_code_elimination
        latest: List = []  # [bits] of the running compaction
        counts = {"solves": 0, "passes": 0, "dce": 0}

        def check_solve(graph, live_in, bits):
            # Every node, reachable or not.
            assert decode_masks(live_in, bits) == \
                oracle_compute_liveness(graph, graph.rpo_order()).live_in
            counts["solves"] += 1

        def checked_masks(graph, rpo, facts):
            masks = real_masks(graph, rpo, facts)
            check_solve(graph, masks, facts.bits)
            return masks

        def checked_solve(graph, walk, uses, defs):
            live_in = real_solve(graph, walk, uses, defs)
            check_solve(graph, live_in, latest[0])
            return live_in

        def check_carried(graph, carried, bits):
            assert {nid: carried.uses[nid] for nid in graph.nodes} == \
                {nid: _uses_of(node, bits)
                 for nid, node in graph.nodes.items()}
            assert {nid: carried.defs[nid] for nid in graph.nodes} == \
                {nid: _defs_of(node, bits)
                 for nid, node in graph.nodes.items()}

        def checked_pass(graph, order, carried, call_nodes, facts, *rest):
            latest[:] = [facts.bits]
            check_carried(graph, carried, facts.bits)
            moved = real_pass(graph, order, carried, call_nodes, facts,
                              *rest)
            check_carried(graph, carried, facts.bits)
            counts["passes"] += 1
            return moved

        def checked_dce(graph):
            twin = graph.copy()
            want = oracle_dead_code_elimination(twin)
            assert real_dce(graph) == want
            assert node_ops(graph) == node_ops(twin)
            counts["dce"] += 1
            return want

        monkeypatch.setattr(percolation, "solve_live_in", checked_solve)
        monkeypatch.setattr(classic, "live_in_masks", checked_masks)
        monkeypatch.setattr(percolation, "_compaction_pass", checked_pass)
        monkeypatch.setattr(classic, "dead_code_elimination", checked_dce)
        monkeypatch.setattr(pipeline, "dead_code_elimination", checked_dce)
        module = compile_benchmark(get_benchmark(bench))
        for level in (OptLevel.PIPELINED, OptLevel.RENAMED):
            optimize_module(module, level)
        assert counts["passes"] > 0 and counts["dce"] > 0
        assert counts["solves"] > counts["passes"]


class TestRegisterNumbering:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_numbering_gives_golden_graphs(self, seed,
                                                    monkeypatch):
        """Masks are only ANDed, ORed and compared, so numbering the
        registers in any order gives the committed optimized graphs and
        compaction statistics."""
        rng = random.Random(seed)
        real_node_masks = dataflow.node_masks
        reordered = []

        def shuffled_masks(graph, facts):
            bits = facts.bits
            first = not bits
            regs = sorted(graph.registers())
            rng.shuffle(regs)
            for reg in regs:
                bits[reg]  # numbers the registers not yet numbered
            if first:
                natural = InstructionMasks()
                real_node_masks(graph, natural)
                reordered.append([reg for reg in bits if reg in natural.bits]
                                 != list(natural.bits))
            return real_node_masks(graph, facts)

        # Compaction derives its masks once per call, dead-code
        # elimination once per solve.
        monkeypatch.setattr(percolation, "node_masks", shuffled_masks)
        monkeypatch.setattr(dataflow, "node_masks", shuffled_masks)
        assert regen.snapshot() == json.loads(regen.GOLDEN_PATH.read_text())
        assert any(reordered)


def _compact_against_frozen(build, monkeypatch, rename=False):
    """Compact ``build()`` with the bit-mask pass and a second ``build()``
    with the frozen set-based one; both must agree."""
    graph = build()
    stats = compact_graph(graph, rename=rename)
    twin = build()
    with monkeypatch.context() as m:
        m.setattr(percolation, "_compaction_pass", frozen_compaction_pass)
        want = compact_graph(twin, rename=rename)
    assert stats == want
    assert regen.render_graph(graph) == regen.render_graph(twin)
    return graph, stats


def _ops(node: Node) -> List[str]:
    return [str(ins) for ins in node.ops]


class TestMaskEdgeCases:
    def test_unreachable_predecessor_as_hoist_target(self, monkeypatch):
        """An unreachable predecessor takes a copy of a hoisted op, and its
        def mask blocks an op reading what it writes."""
        b, x, y, r = (VirtualReg(n) for n in "bxyr")

        def build():
            g = ProgramGraph("f")
            entry, dead, node, ret = (g.new_node() for _ in range(4))
            dead.ops.append(Instruction(Op.MOV, dest=b, srcs=(Constant(9),)))
            node.ops.append(Instruction(Op.MOV, dest=x, srcs=(Constant(5),)))
            node.ops.append(Instruction(Op.ADD, dest=y,
                                        srcs=(b, Constant(1))))
            ret.ops.append(Instruction(Op.ADD, dest=r, srcs=(x, y)))
            ret.control = Instruction(Op.RET, srcs=(r,))
            g.add_edge(entry.id, node.id)
            g.add_edge(dead.id, node.id)
            g.add_edge(node.id, ret.id)
            g.entry = entry.id
            return g

        g, stats = _compact_against_frozen(build, monkeypatch)
        assert stats.moves == 1 and stats.copies == 1
        assert _ops(g.nodes[1]) == ["b = mov 9", "x = mov 5"]
        assert _ops(g.nodes[2]) == ["y = add b, 1"]

    def test_def_mask_drops_register_whose_writer_left(self, monkeypatch):
        """Once x's writer percolates out of the middle node, the next
        node's reader of x may move into it in the same pass."""
        p, x, y, r = (VirtualReg(n) for n in "pxyr")

        def build():
            g = ProgramGraph("f")
            a, mid, c, ret = (g.new_node() for _ in range(4))
            a.ops.append(Instruction(Op.MOV, dest=p, srcs=(Constant(1),)))
            mid.ops.append(Instruction(Op.MOV, dest=x, srcs=(Constant(7),)))
            c.ops.append(Instruction(Op.ADD, dest=y, srcs=(x, Constant(1))))
            ret.ops.append(Instruction(Op.ADD, dest=r, srcs=(y, p)))
            ret.control = Instruction(Op.RET, srcs=(r,))
            for src, dst in ((a, mid), (mid, c), (c, ret)):
                g.add_edge(src.id, dst.id)
            g.entry = a.id
            return g

        g, stats = _compact_against_frozen(build, monkeypatch)
        # y joined the middle node, and the emptied third one went.
        assert stats.moves == 2 and stats.deleted_nodes == 1
        assert {n: _ops(g.nodes[n]) for n in g.nodes} == {
            0: ["p = mov 1", "x = mov 7"], 1: ["y = add x, 1"],
            3: ["r = add y, p"]}

    def test_renamed_temp_blocks_later_output_dependent_hoist(
            self, monkeypatch):
        """A renamed copy's temp joins the target's def mask: a later op in
        the same pass that reads and writes that temp is blocked (a true
        dependence) rather than renamed for its output dependence."""
        c, a, x = VirtualReg("c"), VirtualReg("a"), VirtualReg("x")
        # The name ProgramGraph.new_temp gives the pass's first renamed
        # copy; the second arm reads and writes it.
        fresh = VirtualReg("%r0")

        def build():
            g = ProgramGraph("f")
            top, arm1, ret1, arm2, ret2 = (g.new_node() for _ in range(5))
            top.ops.append(Instruction(Op.MOV, dest=x, srcs=(Constant(1),)))
            top.control = Instruction(Op.BR, srcs=(c,), true_label="t",
                                      false_label="f")
            arm1.ops.append(Instruction(Op.ADD, dest=x,
                                        srcs=(a, Constant(1))))
            ret1.control = Instruction(Op.RET, srcs=(x,))
            arm2.ops.append(Instruction(Op.ADD, dest=fresh,
                                        srcs=(fresh, Constant(1))))
            ret2.control = Instruction(Op.RET, srcs=(fresh,))
            # arm2 first, so the reverse postorder visits arm1 first.
            for src, dst in ((top, arm2), (top, arm1), (arm1, ret1),
                             (arm2, ret2)):
                g.add_edge(src.id, dst.id)
            g.entry = top.id
            return g

        g, stats = _compact_against_frozen(build, monkeypatch, rename=True)
        assert g.rpo_order()[:2] == [0, 1]
        assert stats.renames == 1 and stats.moves == 0
        assert _ops(g.nodes[0]) == ["x = mov 1", "%r0 = add a, 1"]
        assert _ops(g.nodes[1]) == ["x = mov %r0"]
        assert _ops(g.nodes[3]) == ["%r0 = add %r0, 1"]

    def test_reader_leaving_frees_its_register_in_the_same_visit(
            self, monkeypatch):
        """Rule 5 follows the node as ops leave it: once the reader of x
        moves up, the writer of x behind it may follow in the same visit,
        so one pass moves both."""
        p, x, y, r = (VirtualReg(n) for n in "pxyr")

        def build():
            g = ProgramGraph("f")
            top, node, ret = (g.new_node() for _ in range(3))
            top.ops.append(Instruction(Op.MOV, dest=p, srcs=(Constant(0),)))
            node.ops.append(Instruction(Op.ADD, dest=y,
                                        srcs=(x, Constant(1))))
            node.ops.append(Instruction(Op.MOV, dest=x, srcs=(Constant(5),)))
            ret.ops.append(Instruction(Op.ADD, dest=r, srcs=(x, y)))
            ret.control = Instruction(Op.RET, srcs=(r,))
            for src, dst in ((top, node), (node, ret)):
                g.add_edge(src.id, dst.id)
            g.entry = top.id
            return g

        g, stats = _compact_against_frozen(build, monkeypatch)
        assert stats.moves == 2 and stats.passes == 2
        assert _ops(g.nodes[0]) == ["p = mov 0", "y = add x, 1", "x = mov 5"]


class TestFactLifetime:
    def test_rewrites_between_compactions_are_seen(self, monkeypatch):
        """Instruction facts live for one :func:`compact_graph` call only:
        rewriting one op's operands and another's destination between two
        compactions changes what the second may move, exactly as for the
        frozen set-based pass on a twin with the same rewrites."""
        a, b, c, e, g, q, r, x = (VirtualReg(n) for n in "abcegqrx")

        def build():
            graph = ProgramGraph("f")
            n0, n1, n2, ret = (graph.new_node() for _ in range(4))
            n0.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
            n0.ops.append(Instruction(Op.MOV, dest=e, srcs=(Constant(4),)))
            # Blocked: a true dependence on a, an output dependence on e.
            n1.ops.append(Instruction(Op.ADD, dest=b, srcs=(a, Constant(1))))
            n1.ops.append(Instruction(Op.ADD, dest=e, srcs=(x, Constant(3))))
            n2.ops.append(Instruction(Op.ADD, dest=c, srcs=(q, Constant(2))))
            ret.ops.append(Instruction(Op.ADD, dest=r, srcs=(b, c)))
            ret.control = Instruction(Op.RET, srcs=(r,))
            for src, dst in ((n0, n1), (n1, n2), (n2, ret)):
                graph.add_edge(src.id, dst.id)
            graph.entry = n0.id
            return graph

        def rewrite(graph):
            blocked_true, blocked_output = graph.nodes[1].ops
            blocked_true.replace_uses({a: q})
            blocked_output.dest = g

        graph, twin = build(), build()
        first = compact_graph(graph)
        with monkeypatch.context() as m:
            m.setattr(percolation, "_compaction_pass", frozen_compaction_pass)
            assert compact_graph(twin) == first
        assert first.moves == 2
        assert _ops(graph.nodes[1]) == ["b = add a, 1", "e = add x, 3"]
        rewrite(graph)
        rewrite(twin)
        second = compact_graph(graph)
        with monkeypatch.context() as m:
            m.setattr(percolation, "_compaction_pass", frozen_compaction_pass)
            assert compact_graph(twin) == second
        assert regen.render_graph(graph) == regen.render_graph(twin)
        # Both rewritten ops joined the first node, which emptied the second.
        assert second.moves == 2 and second.deleted_nodes == 1
        assert _ops(graph.nodes[0])[-2:] == ["b = add q, 1", "g = add x, 3"]

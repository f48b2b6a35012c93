"""Percolation scheduling: compaction of program graphs.

Implements the core semantics-preserving transformations of Nicolau's
percolation scheduling ([9],[10] in the paper) on VLIW program graphs:

* **move_op** — hoist an operation from a node into its predecessor(s).
  When the node has several predecessors the operation is copied into every
  one of them (the paper's *unify* flavour); the move happens only if it is
  legal in all of them.
* **delete** — remove nodes that became empty, shortening the schedule.
* **register renaming** (optimization level 2) — when a hoist is blocked
  only by an output dependence or by the destination being live on another
  path, a renamed copy ``r' = op ...`` moves up and a ``mov dest, r'``
  stays behind.  This is precisely the mechanism the paper observed to
  *hurt* sequence detection: the producer percolates far from its consumer,
  "communicating only through the renamed register".

Legality rules (one VLIW node: reads at cycle start, writes at cycle end):

1. never move a ``call``; never move anything into a node containing one;
2. true dependence: a predecessor must not write any source of the moved op;
3. output dependence: a predecessor must not write the op's destination
   (renaming lifts this);
4. liveness: the destination must be dead on every other path out of each
   predecessor (renaming lifts this for pure, non-trapping ops);
5. no reader left behind: no instruction remaining in the source node may
   read the op's destination (they would suddenly see the new value);
6. speculation: trapping ops (loads, divides, intrinsics) and stores only
   move into predecessors whose sole successor is the source node;
7. memory order: stores never cross may-aliasing memory operations in
   either the target or the source node; loads never move into a node with
   a may-aliasing store;
8. motion follows forward edges only (strictly decreasing reverse-postorder
   index).  Cross-back-edge motion — software pipelining — is obtained by
   unrolling first (:mod:`repro.opt.looppipe`), which turns the interesting
   iteration seams into forward edges.  This also guarantees termination.

``move_cond`` (branch hoisting) is intentionally not implemented: chainable
sequences are data-operation chains, and in this framework branch order
contributes nothing to producer→consumer adjacency (see DESIGN.md).

Cost: compaction is the largest share of a study, so a pass computes once
what stays fixed while it runs, and the moves come out in exactly the
order a from-scratch check of every candidate would give.  The memos rest
on three invariants: calls never move (and no move creates one), so the
set of nodes holding a call is computed once per :func:`compact_graph`;
:meth:`Instruction.uses <repro.ir.instr.Instruction.uses>` is memoized on
the identity of the ``srcs`` tuple, which every operand rewrite replaces;
and liveness is recomputed exactly at every pass start, then only grown
within the pass as ops move up.  The reverse postorder is reused while no
node is deleted, since moves never touch edges, and rule 5 counts the
readers of each register per node visit instead of rescanning the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.dataflow import compute_liveness
from repro.cfg.graph import Node, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import VirtualReg
from repro.opt.alias import memory_conflict

#: Opcodes that may fault at run time and therefore must not be speculated.
TRAPPING_OPS = {Op.LOAD, Op.FLOAD, Op.DIV, Op.MOD, Op.FDIV, Op.INTRIN}

_LEGAL = "legal"
_RENAME = "rename"
_BLOCKED = "blocked"


@dataclass
class CompactionStats:
    """What one :func:`compact_graph` run did."""

    passes: int = 0
    moves: int = 0
    copies: int = 0
    renames: int = 0
    deleted_nodes: int = 0

    def merge(self, other: "CompactionStats") -> None:
        self.passes += other.passes
        self.moves += other.moves
        self.copies += other.copies
        self.renames += other.renames
        self.deleted_nodes += other.deleted_nodes


def _node_has_call(node: Node) -> bool:
    return any(ins.op is Op.CALL for ins in node.ops)


def _check_target(op: Instruction, op_uses: Set[VirtualReg], mem: bool,
                  unsafe: bool, target: Node, other_succs: List[int],
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


def compact_graph(graph: ProgramGraph, rename: bool = False,
                  max_width: Optional[int] = None,
                  max_passes: int = 64) -> CompactionStats:
    """Percolate operations upward until fixpoint.

    With ``rename=True`` this is the paper's optimization level 2 behaviour;
    without it, level 1.  Returns :class:`CompactionStats`.
    """
    stats = CompactionStats()
    # Calls never move and no move creates one, so this holds all run.
    call_nodes = {nid for nid, node in graph.nodes.items()
                  if _node_has_call(node)}
    order: List[int] = []
    for _ in range(max_passes):
        stats.passes += 1
        if not order:
            # Moves never touch edges, so the order survives every pass
            # that deletes no node.
            order = graph.rpo_order()
        made_progress = _compaction_pass(graph, order, call_nodes, rename,
                                         max_width, stats)
        deleted = delete_empty_nodes(graph)
        stats.deleted_nodes += deleted
        if deleted:
            order = []
        if not made_progress:
            break
    return stats


def _compaction_pass(graph: ProgramGraph, order: List[int],
                     call_nodes: Set[int], rename: bool,
                     max_width: Optional[int],
                     stats: CompactionStats) -> bool:
    nodes = graph.nodes
    live_in = compute_liveness(graph, order).live_in
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
                verdict = _check_target(op, op_uses, mem, unsafe, target,
                                        other_succs, live_in, max_width)
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
                    _hoist_renamed(graph, op, node, targets, live_in,
                                   readers, stats)
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


def _hoist_renamed(graph: ProgramGraph, op: Instruction, node: Node,
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


def delete_empty_nodes(graph: ProgramGraph) -> int:
    """The *delete* transformation: splice out empty single-successor nodes.

    Every deleted node shortens some path by one cycle, which is where
    compaction's speedup comes from — and what brings a producer and its
    consumer into adjacent cycles.
    """
    deleted = 0
    changed = True
    while changed:
        changed = False
        for nid in list(graph.nodes):
            node = graph.nodes[nid]
            if not node.is_empty or len(node.succs) != 1:
                continue
            succ = node.succs[0]
            if succ == nid:
                continue  # empty self-loop: never deletable
            for pred in list(node.preds):
                graph.redirect_edge(pred, nid, succ)
            graph.remove_edge(nid, succ)
            if nid == graph.entry:
                graph.entry = succ
            graph.remove_node(nid)
            deleted += 1
            changed = True
    return deleted

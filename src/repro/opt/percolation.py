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

The pass cap.  :func:`compact_graph` percolates until a pass moves
nothing, but at most ``max_passes`` (64) passes.  Rule 8 already
guarantees termination, so the cap only ever cuts a compaction short.
On the suite it does so once: smooth at level 2 is still moving ops at
pass 64 and would reach its fixpoint at pass 71, 12 moves later.  Every
other level-1/2 compaction converges first
(``tests/test_percolation.py::TestPassCap``).  The paper outputs
(Table 2, the optimized-graph and generated-source goldens) are those
of the capped compaction.

``move_cond`` (branch hoisting) is intentionally not implemented: chainable
sequences are data-operation chains, and in this framework branch order
contributes nothing to producer→consumer adjacency (see DESIGN.md).

Cost: compaction is the largest share of a study, so a
:func:`compact_graph` call computes once what stays fixed while it runs,
and the moves come out in exactly the order a from-scratch check of
every candidate would give.  The memos rest on four invariants, each
holding for one call:

* calls never move (and no move creates one), so the set of nodes
  holding a call is computed once;
* moves never touch edges, and deleting an empty node never reorders the
  rest (see :func:`delete_empty_nodes`), so the reverse postorder is
  walked once and only loses the deleted ids;
* no move rewrites an instruction's operands or destination (a renamed
  copy is a fresh instruction), so each instruction's :class:`OpFacts`
  — use mask, dest bit, memory/trapping/store flags — are derived once,
  on first lookup, into a table that dies with the call, since the
  passes run between compactions do rewrite instructions in place;
* liveness is solved exactly at every pass start, then only grown within
  the pass as ops move up; the solve's inputs are carried across passes
  (:class:`_CarriedLiveness`).  Every node's use mask (the registers its
  ops and control read) and def mask (the registers its ops write) are
  derived once per call and kept exact as ops move: a hoist target ORs
  in the op's use mask and dest bit (the renamed temp's bit, for a
  renamed copy), and a node an op leaves takes the read mask rule 5
  recomputes and a def mask recomputed from the ops that remain.  The
  solve's edges (:class:`~repro.cfg.dataflow.SolveOrder`) are rebuilt
  only after a pass that deleted nodes.

Liveness and the register facts are bit masks over one
:class:`~repro.cfg.dataflow.RegisterBits` numbering per call: a pass
runs :func:`~repro.cfg.dataflow.solve_live_in` once over the carried
masks.  Rules 2 and 3 are then one AND each against the target's def
mask, rule 4 one AND per other successor, and rule 5 one AND against
the registers read by at least one of the node's instructions (two,
when the op reads its own destination); only rule 7 still scans the
target's ops.  Unreachable predecessors, which may be targets, have
masks too.
Opcode tests are ``in`` tests against tuples, which find an enum member
by identity without calling ``Enum.__hash__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.cfg.dataflow import (InstructionMasks, SolveOrder, def_mask,
                                node_masks, register_masks, solve_live_in)
from repro.cfg.graph import Node, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.opt.alias import memory_conflict

#: Opcodes that may fault at run time and therefore must not be speculated.
#: A tuple, so ``op in TRAPPING_OPS`` needs no ``Enum.__hash__`` call.
TRAPPING_OPS = (Op.LOAD, Op.FLOAD, Op.DIV, Op.MOD, Op.FDIV, Op.INTRIN)

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


class OpFacts(NamedTuple):
    """What the legality rules ask of one instruction."""

    use_mask: int
    dest_bit: int  # 0 without a destination
    mem: bool  # a load or a store
    unsafe: bool  # trapping or a store: never speculated (rule 6)
    store: bool
    renamable: bool  # a pure, non-trapping op with a destination


class _FactTable(InstructionMasks):
    """:class:`OpFacts` per instruction, derived once per compaction.

    Nothing in :func:`compact_graph` rewrites an instruction's operands or
    destination (a renamed copy is a fresh instruction), so an entry stays
    exact for the whole call.  The table dies with the call, as passes
    run between compactions do rewrite instructions in place.
    """

    __slots__ = ()

    def __missing__(self, ins: Instruction) -> OpFacts:
        use_mask, dest_bit = register_masks(ins, self.bits)
        store = ins.is_store
        unsafe = store or ins.op in TRAPPING_OPS
        facts = self[ins] = OpFacts(
            use_mask, dest_bit, store or ins.is_load, unsafe, store,
            bool(dest_bit) and not unsafe and not ins.has_side_effects)
        return facts


def _node_has_call(node: Node) -> bool:
    return any(ins.op is Op.CALL for ins in node.ops)


def _read_masks(node: Node, facts: _FactTable) -> Tuple[int, int]:
    """The registers read by at least one and by at least two of the
    node's instructions, for rule 5."""
    once = twice = 0
    for ins in node.ops:
        use = facts[ins][0]
        twice |= once & use
        once |= use
    if node.control is not None:
        use = facts[node.control][0]
        twice |= once & use
        once |= use
    return once, twice


def _check_target(use_mask: int, dest_bit: int, op: Instruction, mem: bool,
                  unsafe: bool, target: Node, target_defs: int,
                  other_succs: List[int], live_in: Dict[int, int],
                  max_width: Optional[int]) -> str:
    """Classify hoisting *op* into *target* (rules 2-4, 6, 7).

    *use_mask* and *dest_bit* are the op's sources and destination as
    register bits, *mem* (a load or store) and *unsafe* (trapping or a
    store) its other facts, all computed once for all targets;
    *target_defs* is the def mask of the target's ops, and *other_succs*
    are the target's successors other than the source node, so a
    non-empty list makes the hoist speculative.  Rule 1 and the renaming
    legality are the caller's.
    """
    if max_width is not None and len(target.ops) >= max_width:
        return _BLOCKED
    if unsafe and other_succs:
        return _BLOCKED
    if target_defs & use_mask:
        return _BLOCKED  # true dependence
    if mem:
        for existing in target.ops:
            if memory_conflict(op, existing):
                return _BLOCKED
    if target_defs & dest_bit:
        return _RENAME  # output dependence: renaming can fix it
    for succ in other_succs:
        if live_in[succ] & dest_bit:
            return _RENAME
    return _LEGAL


class _CarriedLiveness:
    """What every liveness solve of one :func:`compact_graph` call reads:
    each node's use and def masks, kept exact as ops move, and the
    solve's edges, rebuilt only after a pass that deleted nodes.

    Deleted nodes keep their entries; only empty nodes are deleted, so
    those are 0, and no solve or check reads them.
    """

    __slots__ = ("uses", "defs", "walk")

    def __init__(self, graph: ProgramGraph, order: List[int],
                 facts: "_FactTable"):
        self.uses, self.defs = node_masks(graph, facts)
        self.walk = SolveOrder(graph, order)


def compact_graph(graph: ProgramGraph, rename: bool = False,
                  max_width: Optional[int] = None,
                  max_passes: int = 64) -> CompactionStats:
    """Percolate operations upward until fixpoint, or for at most
    *max_passes* passes (see "The pass cap" in the module docstring).

    With ``rename=True`` this is the paper's optimization level 2 behaviour;
    without it, level 1.  Returns :class:`CompactionStats`.
    """
    stats = CompactionStats()
    facts = _FactTable()
    # Calls never move and no move creates one, so this holds all run.
    call_nodes = {nid for nid, node in graph.nodes.items()
                  if _node_has_call(node)}
    # Moves never touch edges, and deleting empty nodes never reorders
    # the rest (see delete_empty_nodes), so one walk serves every pass.
    order = graph.rpo_order()
    carried = _CarriedLiveness(graph, order, facts)
    for _ in range(max_passes):
        stats.passes += 1
        made_progress = _compaction_pass(graph, order, carried, call_nodes,
                                         facts, rename, max_width, stats)
        deleted = delete_empty_nodes(graph)
        stats.deleted_nodes += deleted
        if not made_progress:
            break
        if deleted:
            order = [nid for nid in order if nid in graph.nodes]
            carried.walk = SolveOrder(graph, order)
    return stats


def _compaction_pass(graph: ProgramGraph, order: List[int],
                     carried: _CarriedLiveness, call_nodes: Set[int],
                     facts: _FactTable, rename: bool,
                     max_width: Optional[int],
                     stats: CompactionStats) -> bool:
    nodes = graph.nodes
    use_masks, def_masks = carried.uses, carried.defs
    live_in = solve_live_in(graph, carried.walk, use_masks, def_masks)
    rpo_index = carried.walk.rpo_index
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
        # Rule 5: the registers the node's instructions read (its use
        # mask) and those read twice, derived only when an op reads its
        # own destination; both kept current as ops leave the node.
        read_once, read_twice = use_masks[nid], None

        for op in list(node.ops):
            if op.op is Op.CALL:
                continue
            use_mask, dest_bit, mem, unsafe, store, renamable = facts[op]
            if use_mask & dest_bit:
                if read_twice is None:
                    read_twice = _read_masks(node, facts)[1]
                if dest_bit & read_twice:
                    continue  # another instruction here reads the old value
            elif dest_bit & read_once:
                continue
            if store and any(memory_conflict(op, other)
                             for other in node.ops if other is not op):
                continue
            needs_rename = False
            for target, other_succs in targets:
                verdict = _check_target(use_mask, dest_bit, op, mem, unsafe,
                                        target, def_masks[target.id],
                                        other_succs, live_in, max_width)
                if verdict is _BLOCKED:
                    break
                if verdict is _RENAME:
                    needs_rename = True
            else:
                # Renaming produces a speculatively executed copy, so the
                # op must be pure and non-trapping with a destination.
                if needs_rename and not (rename and renamable):
                    continue
                if needs_rename:
                    _hoist_renamed(graph, op, node, targets, facts, live_in,
                                   carried, stats)
                else:
                    node.ops.remove(op)
                    def_masks[nid] = def_mask(node.ops, facts)
                    first = True
                    for target, _ in targets:
                        target.ops.append(op if first else op.clone())
                        use_masks[target.id] |= use_mask
                        def_masks[target.id] |= dest_bit
                        first = False
                    live_in[nid] |= dest_bit
                    stats.moves += 1
                    stats.copies += len(preds) - 1
                read_once, read_twice = _read_masks(node, facts)
                use_masks[nid] = read_once
                moved_any = True
    return moved_any


def _hoist_renamed(graph: ProgramGraph, op: Instruction, node: Node,
                   targets: List[Tuple[Node, List[int]]],
                   facts: _FactTable, live_in: Dict[int, int],
                   carried: _CarriedLiveness,
                   stats: CompactionStats) -> None:
    """Hoist ``r' = op ...`` into every target, leave ``mov dest, r'``.

    The node keeps writing ``dest``, so its def mask stays; its use mask
    is the caller's, which recomputes it with rule 5's read masks.
    """
    fresh = graph.new_temp(op.dest.is_float)
    fresh_bit = facts.bits[fresh]
    use_mask = facts[op][0]
    for target, _ in targets:
        clone = op.clone()
        clone.dest = fresh
        target.ops.append(clone)
        carried.uses[target.id] |= use_mask
        carried.defs[target.id] |= fresh_bit
    mov_op = Op.FMOV if op.dest.is_float else Op.MOV
    index = node.ops.index(op)
    node.ops[index] = Instruction(
        mov_op, dest=op.dest, srcs=(fresh,),
        origin=op.origin, loc=op.loc)
    live_in[node.id] |= fresh_bit
    stats.renames += 1
    stats.copies += len(targets) - 1


def delete_empty_nodes(graph: ProgramGraph) -> int:
    """The *delete* transformation: splice out empty single-successor nodes.

    Every deleted node shortens some path by one cycle, which is where
    compaction's speedup comes from — and what brings a producer and its
    consumer into adjacent cycles.

    One scan finds them all.  Splicing a node out redirects each
    predecessor's edge in place, which changes no other node's ops,
    control or successor count; the only thing it can change is to turn
    an edge into a self-loop, and that makes a node undeletable, never
    deletable.  Nor does it reorder the rest of the reverse postorder: a
    depth-first walk that went through the spliced node now reaches its
    successor at the same point, so :func:`compact_graph` keeps its order
    by dropping the deleted ids.
    """
    deleted = 0
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
    return deleted

"""Dataflow analyses over program graphs.

Liveness is the one that matters for percolation scheduling: an operation may
only be hoisted into a predecessor node if its destination register is dead
on every *other* path out of that predecessor.

Liveness is solved in the bit-vector formulation of dataflow
(Aho/Lam/Sethi/Ullman §9.2; Appel, *Modern Compiler Implementation*,
§17.4): a :class:`RegisterBits` numbering gives each register of a graph
one bit, and :func:`live_in_masks` returns every node's live-in set as a
Python int, so each transfer function is two or three big-int operations
instead of set unions over register tuples.  Each instruction's use
mask and dest bit come from an :class:`InstructionMasks` table, which
derives them on first lookup: dead-code elimination keeps one table for
all its rounds and percolation one for a whole compaction.

The fixpoint itself is :func:`solve_live_in`, over a :class:`SolveOrder`
(the edges it walks) and every node's use and def masks.
:func:`live_in_masks` derives those node masks afresh for each solve;
percolation derives them once per compaction and keeps them current as
ops move (see :mod:`repro.opt.percolation`).  Percolation and dead-code
elimination test and grow the live-in masks directly;
:func:`compute_liveness` decodes them into register sets for callers
that want sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cfg.graph import ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.values import VirtualReg


@dataclass
class LivenessInfo:
    """live_in / live_out register sets per node id."""

    live_in: Dict[int, Set[VirtualReg]] = field(default_factory=dict)
    live_out: Dict[int, Set[VirtualReg]] = field(default_factory=dict)


class RegisterBits(dict):
    """Register -> one-bit int, numbered in order of first lookup.

    The numbering is arbitrary: masks are only ANDed, ORed and compared,
    so no result depends on which register got which bit.
    """

    __slots__ = ()

    def __missing__(self, reg: VirtualReg) -> int:
        bit = self[reg] = 1 << len(self)
        return bit


class InstructionMasks(dict):
    """Instruction -> ``(use mask, dest bit)`` over :attr:`bits`, derived
    on first lookup.

    Keyed by identity, so an entry describes its instruction as it was
    when first looked up: a table must not outlive a rewrite of the
    operands or destination of an instruction it holds.  Subclasses may
    derive longer tuples; items 0 and 1 stay the two masks.
    """

    __slots__ = ("bits",)

    def __init__(self):
        super().__init__()
        self.bits = RegisterBits()

    def __missing__(self, ins: Instruction) -> Tuple[int, ...]:
        masks = self[ins] = register_masks(ins, self.bits)
        return masks


def register_masks(ins: Instruction, bits: RegisterBits) -> Tuple[int, int]:
    """*ins*'s ``(use mask, dest bit)``; the dest bit is 0 without a
    destination."""
    use = 0
    for reg in ins.uses():
        use |= bits[reg]
    return use, 0 if ins.dest is None else bits[ins.dest]


def def_mask(ops: Iterable[Instruction], masks: InstructionMasks) -> int:
    """The OR of the dest bits of *ops*."""
    mask = 0
    for ins in ops:
        mask |= masks[ins][1]
    return mask


def node_masks(graph: ProgramGraph, masks: InstructionMasks,
               ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Every node's ``(use masks, def masks)``, unreachable nodes included.

    A node's use mask is the OR of what its ops and control read, its
    def mask the OR of what its ops write (see :func:`def_mask`).
    """
    uses: Dict[int, int] = {}
    defs: Dict[int, int] = {}
    for nid, node in graph.nodes.items():
        use = write = 0
        for ins in node.ops:
            fact = masks[ins]
            use |= fact[0]
            write |= fact[1]
        if node.control is not None:
            use |= masks[node.control][0]
        uses[nid] = use
        defs[nid] = write
    return uses, defs


class SolveOrder:
    """The edges a liveness solve walks, for one reverse postorder.

    ``order`` is *rpo* reversed; ``succs[i]`` is the successor list of
    ``order[i]`` (the node's own list, not a copy) and ``preds[i]`` the
    positions in ``order`` of its solved predecessors.  ``rpo_index``
    maps each solved node to its index in *rpo*.  Nothing here reads a
    node's instructions, so it stays exact while edges stay unchanged.
    """

    __slots__ = ("order", "succs", "preds", "rpo_index")

    def __init__(self, graph: ProgramGraph, rpo: List[int]):
        nodes = graph.nodes
        self.order = order = rpo[::-1]
        self.rpo_index = {nid: i for i, nid in enumerate(rpo)}
        position = {nid: i for i, nid in enumerate(order)}
        self.succs = [nodes[nid].succs for nid in order]
        self.preds = [[position[p] for p in nodes[nid].preds
                       if p in position] for nid in order]


def solve_live_in(graph: ProgramGraph, walk: SolveOrder,
                  uses: Dict[int, int], defs: Dict[int, int],
                  ) -> Dict[int, int]:
    """Every node's live-in mask, from each node's use and def masks.

    Within a node all reads happen before all writes, so a register both
    read and written by the same node is *used* (its incoming value matters):
    ``live_in = use | (live_out & ~def)``.  Only the nodes of *walk* are
    solved; the rest keep an empty (0) live-in mask.
    """
    live_in = dict.fromkeys(graph.nodes, 0)
    order = walk.order
    rows = list(zip(order, walk.succs, walk.preds,
                    [uses[nid] for nid in order],
                    [~defs[nid] for nid in order]))
    # Iterate to fixpoint in reverse RPO for fast convergence, revisiting
    # only nodes with a successor whose live_in changed since their last
    # visit.  Every update is monotone from the empty masks, so this is the
    # same least fixpoint a full round-robin reaches.
    dirty = [True] * len(rows)
    changed = True
    while changed:
        changed = False
        for i, (nid, succs, preds, use, keep) in enumerate(rows):
            if not dirty[i]:
                continue
            dirty[i] = False
            out = 0
            for succ in succs:
                out |= live_in[succ]
            new_in = use | (out & keep)
            if new_in != live_in[nid]:
                live_in[nid] = new_in
                for p in preds:
                    dirty[p] = True
                    changed = changed or p <= i
    return live_in


def live_in_masks(graph: ProgramGraph, rpo: List[int],
                  masks: InstructionMasks) -> Dict[int, int]:
    """Classic backward worklist liveness over VLIW nodes, as bit masks:
    :func:`solve_live_in` over :func:`node_masks`.

    *rpo* is the graph's current :meth:`~ProgramGraph.rpo_order`; only
    those nodes are solved, the rest keep an empty (0) live-in mask.
    Each instruction's registers come from *masks*, which may already
    hold some instructions (and its numbering some registers).
    """
    uses, defs = node_masks(graph, masks)
    return solve_live_in(graph, SolveOrder(graph, rpo), uses, defs)


def live_out_mask(graph: ProgramGraph, nid: int,
                  live_in: Dict[int, int]) -> int:
    """The OR of the successors' live-in masks of node *nid*."""
    out = 0
    for succ in graph.nodes[nid].succs:
        out |= live_in[succ]
    return out


def compute_liveness(graph: ProgramGraph,
                     rpo: Optional[List[int]] = None) -> LivenessInfo:
    """:func:`live_in_masks` decoded into register sets per node.

    *rpo* is the graph's current :meth:`~ProgramGraph.rpo_order`, for
    callers that already hold it.  Nodes unreachable from the entry keep
    empty ``live_in`` and ``live_out`` sets.
    """
    order = graph.rpo_order() if rpo is None else rpo
    masks = InstructionMasks()
    live_in = live_in_masks(graph, order, masks)
    regs = list(masks.bits)  # bit i belongs to regs[i]

    def decode(mask: int) -> Set[VirtualReg]:
        return {reg for i, reg in enumerate(regs) if mask >> i & 1}

    reachable = set(order)
    return LivenessInfo(
        live_in={nid: decode(live_in[nid]) for nid in graph.nodes},
        live_out={nid: decode(live_out_mask(graph, nid, live_in))
                  if nid in reachable else set() for nid in graph.nodes})


def reaching_uses(graph: ProgramGraph,
                  ) -> Dict[int, List[Tuple[int, Instruction]]]:
    """For each node, the (node_id, instruction) pairs that read each def.

    Returns a map keyed by instruction ``uid`` of a defining instruction to
    the list of (node, instruction) sites that may consume its value along
    some path without an intervening redefinition.  Used by the sequence
    analyzer to find producer→consumer pairs beyond immediate neighbours and
    by tests as an oracle.
    """
    consumers: Dict[int, List[Tuple[int, Instruction]]] = {}
    for nid, node in graph.nodes.items():
        for ins in node.ops:
            if ins.dest is None:
                continue
            found = _collect_consumers(graph, nid, ins.dest)
            consumers[ins.uid] = found
    return consumers


def _collect_consumers(graph: ProgramGraph, start: int,
                       reg: VirtualReg) -> List[Tuple[int, Instruction]]:
    """Walk forward from *start* finding reads of *reg* before redefinition."""
    result: List[Tuple[int, Instruction]] = []
    seen: Set[int] = set()
    stack = list(graph.nodes[start].succs)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = graph.nodes[nid]
        for ins in node.all_instructions():
            if reg in ins.uses():
                result.append((nid, ins))
        if reg in node.defs():
            continue  # killed here; stop this path
        stack.extend(node.succs)
    return result

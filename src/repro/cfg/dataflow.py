"""Dataflow analyses over program graphs.

Liveness is the one that matters for percolation scheduling: an operation may
only be hoisted into a predecessor node if its destination register is dead
on every *other* path out of that predecessor.

Liveness is solved in the bit-vector formulation of dataflow
(Aho/Lam/Sethi/Ullman §9.2; Appel, *Modern Compiler Implementation*,
§17.4): a :class:`RegisterBits` numbering gives each register of a graph
one bit, and :func:`live_in_masks` returns every node's live-in set as a
Python int, so each transfer function is two or three big-int operations
instead of set unions over register tuples.  Percolation and dead-code
elimination test and grow those masks directly; :func:`compute_liveness`
decodes them into register sets for callers that want sets.
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


def def_mask(ops: Iterable[Instruction], bits: RegisterBits) -> int:
    """The OR of ``bits[ins.dest]`` over the ops that write a register."""
    mask = 0
    for ins in ops:
        if ins.dest is not None:
            mask |= bits[ins.dest]
    return mask


def live_in_masks(graph: ProgramGraph, rpo: List[int], bits: RegisterBits,
                  defs_out: Optional[Dict[int, int]] = None,
                  ) -> Dict[int, int]:
    """Classic backward worklist liveness over VLIW nodes, as bit masks.

    Within a node all reads happen before all writes, so a register both
    read and written by the same node is *used* (its incoming value matters):
    ``use(n) = reads(n)``, ``def(n) = writes(n)``,
    ``live_in = use | (live_out & ~def)``.

    *rpo* is the graph's current :meth:`~ProgramGraph.rpo_order`; only
    those nodes are solved, the rest keep an empty (0) live-in mask.
    Registers are numbered through *bits*, which may already hold some.
    When *defs_out* is given it receives every node's def mask (see
    :func:`def_mask`), unreachable nodes included.
    """
    nodes = graph.nodes
    live_in = dict.fromkeys(nodes, 0)
    # Iterate to fixpoint in reverse RPO for fast convergence, revisiting
    # only nodes with a successor whose live_in changed since their last
    # visit.  Every update is monotone from the empty masks, so this is the
    # same least fixpoint a full round-robin reaches.
    order = rpo[::-1]
    position = {nid: i for i, nid in enumerate(order)}
    facts = []
    for nid in order:
        node = nodes[nid]
        preds = [position[p] for p in node.preds if p in position]
        # Node.uses()/defs() and def_mask inlined: this runs per solve,
        # per node.
        use = defs = 0
        for ins in node.ops:
            for reg in ins.uses():
                use |= bits[reg]
            if ins.dest is not None:
                defs |= bits[ins.dest]
        if node.control is not None:
            for reg in node.control.uses():
                use |= bits[reg]
        if defs_out is not None:
            defs_out[nid] = defs
        facts.append((nid, node.succs, preds, use, ~defs))
    if defs_out is not None and len(order) < len(nodes):
        # Percolation hoists into unreachable predecessors too.
        for nid, node in nodes.items():
            if nid not in position:
                defs_out[nid] = def_mask(node.ops, bits)
    dirty = [True] * len(order)
    changed = True
    while changed:
        changed = False
        for i, (nid, succs, preds, use, keep) in enumerate(facts):
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
    bits = RegisterBits()
    live_in = live_in_masks(graph, order, bits)
    regs = list(bits)  # bit i belongs to regs[i]

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

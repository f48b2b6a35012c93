"""Dataflow analyses over program graphs.

Liveness is the one that matters for percolation scheduling: an operation may
only be hoisted into a predecessor node if its destination register is dead
on every *other* path out of that predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.graph import ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.values import VirtualReg


@dataclass
class LivenessInfo:
    """live_in / live_out register sets per node id."""

    live_in: Dict[int, Set[VirtualReg]] = field(default_factory=dict)
    live_out: Dict[int, Set[VirtualReg]] = field(default_factory=dict)

    def is_live_in(self, node_id: int, reg: VirtualReg) -> bool:
        return reg in self.live_in.get(node_id, ())

    def is_live_out(self, node_id: int, reg: VirtualReg) -> bool:
        return reg in self.live_out.get(node_id, ())


def compute_liveness(graph: ProgramGraph,
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
        facts.append((nid, node.succs, preds, node.uses(), node.defs()))
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

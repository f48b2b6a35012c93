"""Chain-aware instruction selection.

Builds a fused copy of a *sequential* program graph (one operation per
node — either the level-0 graph or a re-sequentialized optimized schedule
from :mod:`repro.asip.resequence`) in which runs of nodes that match a
chained instruction's pattern become a single :class:`FusedInstruction`
node.  Selection is two steps, and neither mutates its input:
:class:`ChainMatcher` finds the runs on the unchanged graph (once set up
for a module, for any number of chain sets), and
:func:`build_fused` builds the fused module from them, sharing every
unfused instruction with the input.  :func:`site_key` names the fused
program a match produces, so callers can tell two chain sets that fuse
the same program apart from ones that do not.

Matching rules:

* the node run is connected head-to-tail, interior nodes have exactly one
  predecessor (no path enters the middle of a chain) and one successor;
* no node in the run carries control (a branch issues on its own);
* each operation's destination feeds an operand of the next (the same
  data-flow condition the detector used);
* patterns are tried longest-first, greedily and non-overlapping.

A fused node still writes every intermediate destination register, so
downstream consumers of an intermediate value keep working — the hardware
analogue is that the chained datapath taps stay connected to the register
file write ports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.asip.isa import ChainedInstruction, InstructionSet
from repro.chaining.sequence import SequenceName
from repro.cfg.graph import GraphModule, Node, ProgramGraph
from repro.errors import AsipError, IRError
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.sim.diskcache import derive_stamp


class FusedInstruction(Instruction):
    """A chained instruction occurrence: its parts execute back-to-back
    within one issue, with operand forwarding between them."""

    __slots__ = ("parts", "chain")

    def __init__(self, chain: ChainedInstruction,
                 parts: Sequence[Instruction]):
        if len(parts) != chain.length:
            raise AsipError(
                f"{chain.name}: {len(parts)} parts for a "
                f"{chain.length}-operation chain")
        self.parts = list(parts)
        self.chain = chain
        super().__init__(Op.CHAIN)

    def uses(self):
        seen = {}
        for part in self.parts:
            for r in part.uses():
                seen.setdefault(r)
        return tuple(seen)

    def defs(self):
        seen = {}
        for part in self.parts:
            for r in part.defs():
                seen.setdefault(r)
        return tuple(seen)

    def clone(self, reg_map=None, label_map=None) -> "FusedInstruction":
        return FusedInstruction(
            self.chain,
            [p.clone(reg_map, label_map) for p in self.parts])

    def __str__(self) -> str:
        inner = "; ".join(str(p) for p in self.parts)
        return f"{self.chain.name} {{ {inner} }}"


@dataclass
class SelectionStats:
    """What one selection run fused."""

    # chain pattern -> number of static sites fused
    sites: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    nodes_removed: int = 0

    @property
    def total_sites(self) -> int:
        return sum(self.sites.values())


#: One fused site: (function, node run head-first, chain), in fusion order.
Site = Tuple[str, Tuple[int, ...], ChainedInstruction]


class ChainMatcher:
    """Matches chain sets against one sequential module, which it never
    changes; the walk order and the node links are worked out once and
    serve every chain set.

    Walks each graph in reverse postorder and tries a chain set's chains
    longest-first at every node, greedily.  A node already fused into
    an earlier run (its head or any later node) cannot start or join
    another, so the walk over the unchanged graph accepts exactly the
    runs that rewriting the graph after each match would: only the head
    and the tail's successors of a fused run change, and neither change
    lets a later run through (a fused head matches no pattern, and the
    tail's successors keep their predecessor count).
    """

    def __init__(self, module: GraphModule):
        self.module = module
        # Per graph, in reverse postorder, the nodes that could start a
        # chain (one operation, no control) with that operation's class.
        self._starts: Dict[str, List[Tuple[int, str]]] = {}
        # Per graph, each such node's link ``(next id, next class)``:
        # the one successor a run may continue into under the matching
        # rules (no control, one operation of a chain class, one
        # predecessor, reading this node's destination).
        self._links: Dict[str, Dict[int, Tuple[int, str]]] = {}
        for name, graph in module.graphs.items():
            nodes = graph.nodes
            starts = []
            links = {}
            for nid in graph.rpo_order():
                node = nodes[nid]
                if node.control is not None or len(node.ops) != 1:
                    continue
                producer = node.ops[0]
                chain_class = producer.chain_class
                if chain_class is None:
                    continue
                starts.append((nid, chain_class))
                if len(node.succs) != 1 or producer.dest is None:
                    continue
                nxt_id = node.succs[0]
                nxt = nodes[nxt_id]
                if nxt.control is not None or len(nxt.ops) != 1 \
                        or len(nxt.preds) != 1:
                    continue
                consumer = nxt.ops[0]
                if consumer.chain_class is not None \
                        and producer.dest in consumer.uses():
                    links[nid] = (nxt_id, consumer.chain_class)
            self._starts[name] = starts
            self._links[name] = links

    def match(self, isa: InstructionSet) -> Tuple[Site, ...]:
        """Every run selection fuses for *isa*, in fusion order."""
        # Longest-first, then ISA order, per head class: a node is tried
        # only against the chains its own operation could start.
        by_head: Dict[str, List[ChainedInstruction]] = {}
        for chain in sorted(isa.chains, key=lambda c: -c.length):
            by_head.setdefault(chain.pattern[0], []).append(chain)
        sites: List[Site] = []
        for name in self.module.graphs:
            links = self._links[name]
            taken: Set[int] = set()
            for nid, chain_class in self._starts[name]:
                if nid in taken:
                    continue
                for chain in by_head.get(chain_class, ()):
                    run = [nid]
                    for want in chain.pattern[1:]:
                        link = links.get(run[-1])
                        if link is None or link[1] != want:
                            break
                        nxt_id = link[0]
                        if nxt_id in taken or nxt_id in run:
                            break  # an earlier run's, or a wrap onto itself
                        run.append(nxt_id)
                    else:
                        run = tuple(run)
                        taken.update(run)
                        sites.append((name, run, chain))
                        break
        return tuple(sites)


def site_key(sites: Sequence[Site]
             ) -> Tuple[Tuple[str, int, SequenceName], ...]:
    """``(function, head node, pattern)`` per site: equal keys on one
    module mean equal fused programs (the head and the pattern's length
    fix the run; only the pattern of a chain reaches the program)."""
    return tuple((name, run[0], chain.pattern) for name, run, chain in sites)


def select_chains(module: GraphModule, isa: InstructionSet
                  ) -> Tuple[GraphModule, SelectionStats]:
    """Fuse every match of *isa*'s chains in every graph of *module*.

    Returns the fused module and its :class:`SelectionStats`; *module*
    is left unchanged and shares every unfused instruction with the
    fused module.
    """
    sites = ChainMatcher(module).match(isa)
    return build_fused(module, sites), selection_stats(sites)


def selection_stats(sites: Sequence[Site]) -> SelectionStats:
    """What fusing *sites* removes: sites per pattern, nodes dropped."""
    stats = SelectionStats()
    for _name, run, chain in sites:
        key = tuple(chain.pattern)
        stats.sites[key] = stats.sites.get(key, 0) + 1
        stats.nodes_removed += len(run) - 1
    return stats


def build_fused(module: GraphModule, sites: Sequence[Site]) -> GraphModule:
    """*module* with every site of *sites* fused, in site order.

    Every node is a fresh :class:`Node`, but unfused instructions are
    *module*'s own objects.  Each run's head takes a
    :class:`FusedInstruction` and the tail's successors; the rest of the
    run is dropped; each successor of the tail swaps the tail for the
    head at the end of its predecessor list.  A stamped *module* gives a
    fused module stamped from its key and :func:`site_key` of *sites*,
    which names the fused program; with no sites the program is
    *module*'s own, and so is the key.
    """
    runs: Dict[str, List[Tuple[Tuple[int, ...], ChainedInstruction]]] = {}
    for name, run, chain in sites:
        runs.setdefault(name, []).append((run, chain))
    graphs = {name: _build_graph(graph, runs.get(name, ()))
              for name, graph in module.graphs.items()}
    fused = GraphModule(module.name, graphs, module.global_arrays,
                        module.array_initializers, module.global_scalars)
    if not sites:  # nothing fused: the same program, under the same key
        fused.provenance_key = module.provenance_key
        return fused
    return derive_stamp(fused, module, "fused", repr(site_key(sites)))


def _build_graph(graph: ProgramGraph,
                 runs: Sequence[Tuple[Tuple[int, ...], ChainedInstruction]]
                 ) -> ProgramGraph:
    dup = ProgramGraph(graph.name, graph.params, graph.local_arrays,
                       graph.return_type)
    dup._ids = itertools.count(max(graph.nodes) + 1 if graph.nodes else 0)
    dropped: Set[int] = set()
    for run, _chain in runs:
        if graph.entry in run[1:]:
            raise IRError("cannot remove the entry node")
        dropped.update(run[1:])
    nodes = dup.nodes
    for nid, node in graph.nodes.items():
        if nid in dropped:
            continue
        twin = Node(nid)
        twin.ops = list(node.ops)
        twin.control = node.control
        twin.succs = list(node.succs)
        twin.preds = list(node.preds)
        nodes[nid] = twin
    dup.entry = graph.entry
    for run, chain in runs:
        head_id, tail_id = run[0], run[-1]
        head = nodes[head_id]
        head.ops = [FusedInstruction(
            chain, [graph.nodes[nid].ops[0] for nid in run])]
        # The tail is untouched by earlier runs (it was never fused), so
        # its successors are still the base graph's.
        tail_succs = graph.nodes[tail_id].succs
        for succ in tail_succs:
            nodes[succ].preds.remove(tail_id)
        for succ in tail_succs:
            nodes[succ].preds.append(head_id)
        head.succs = list(tail_succs)
    return dup

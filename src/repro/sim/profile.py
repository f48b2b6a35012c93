"""Profile data collected by the simulator.

The sequence analyzer needs, per function graph:

* how many times each node executed (``node_counts``) — one node is one
  machine cycle, so the total is the program's cycle count;
* how many times each control-flow edge was taken (``edge_counts``) — the
  occurrence count of a multi-node chain is the flow along its node path.

Counts are also exposed per instruction provenance uid (``origin``), which
survives loop unrolling and renaming, so "the multiply from source line X"
keeps a single identity across optimization levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.cfg.graph import GraphModule, ProgramGraph


@dataclass
class ProfileData:
    """Execution counts for one simulated run of a graph module."""

    # function name -> node id -> executions
    node_counts: Dict[str, Dict[int, int]] = field(default_factory=dict)
    # function name -> (src node, dst node) -> traversals
    edge_counts: Dict[str, Dict[Tuple[int, int], int]] = field(
        default_factory=dict)
    # function name -> calls executed
    call_counts: Dict[str, int] = field(default_factory=dict)

    # -- recording (used by the interpreter) --------------------------------------

    def count_node(self, fn: str, node_id: int) -> None:
        counts = self.node_counts.setdefault(fn, {})
        counts[node_id] = counts.get(node_id, 0) + 1

    def count_edge(self, fn: str, src: int, dst: int) -> None:
        counts = self.edge_counts.setdefault(fn, {})
        key = (src, dst)
        counts[key] = counts.get(key, 0) + 1

    def count_call(self, fn: str) -> None:
        self.call_counts[fn] = self.call_counts.get(fn, 0) + 1

    def merge_arrays(self, fn: str,
                     node_ids: Sequence[int], node_hits: Sequence[int],
                     edge_pairs: Sequence[Tuple[int, int]],
                     edge_hits: Sequence[int]) -> None:
        """Fold the codegen engine's flat per-graph counters in one pass.

        ``node_hits[i]`` is the execution count of ``node_ids[i]`` and
        ``edge_hits[i]`` the traversal count of ``edge_pairs[i]``.  Zero
        counters are skipped so the folded dicts are indistinguishable from
        the ones the reference interpreter builds incrementally.
        """
        counts = None
        for node_id, hit in zip(node_ids, node_hits):
            if hit:
                if counts is None:
                    counts = self.node_counts.setdefault(fn, {})
                counts[node_id] = counts.get(node_id, 0) + hit
        counts = None
        for pair, hit in zip(edge_pairs, edge_hits):
            if hit:
                if counts is None:
                    counts = self.edge_counts.setdefault(fn, {})
                counts[pair] = counts.get(pair, 0) + hit

    # -- queries -------------------------------------------------------------------

    def node_count(self, fn: str, node_id: int) -> int:
        return self.node_counts.get(fn, {}).get(node_id, 0)

    def edge_count(self, fn: str, src: int, dst: int) -> int:
        return self.edge_counts.get(fn, {}).get((src, dst), 0)

    def total_cycles(self) -> int:
        """Machine cycles: every node execution is one cycle."""
        return sum(sum(counts.values())
                   for counts in self.node_counts.values())

    def total_op_executions(self, module: GraphModule) -> int:
        """Dynamic operation count (chainable or not, excluding control)."""
        total = 0
        for fn_name, counts in self.node_counts.items():
            graph = module.graphs.get(fn_name)
            if graph is None:
                continue
            for nid, count in counts.items():
                node = graph.nodes.get(nid)
                if node is None:
                    continue
                total += count * len(node.ops)
        return total

    def dynamic_ilp(self, module: GraphModule) -> float:
        """Dynamic instruction-level parallelism: operations per cycle."""
        cycles = self.total_cycles()
        if cycles == 0:
            return 0.0
        return self.total_op_executions(module) / cycles

    def instruction_counts(self, module: GraphModule) -> Dict[int, int]:
        """Executions per instruction uid (a copy executes with its node)."""
        counts: Dict[int, int] = {}
        for fn_name, node_counts in self.node_counts.items():
            graph = module.graphs.get(fn_name)
            if graph is None:
                continue
            for nid, count in node_counts.items():
                node = graph.nodes.get(nid)
                if node is None:
                    continue
                for ins in node.all_instructions():
                    counts[ins.uid] = counts.get(ins.uid, 0) + count
        return counts

    def origin_counts(self, module: GraphModule) -> Dict[int, int]:
        """Executions per provenance uid, merging unrolled copies."""
        counts: Dict[int, int] = {}
        for fn_name, node_counts in self.node_counts.items():
            graph = module.graphs.get(fn_name)
            if graph is None:
                continue
            for nid, count in node_counts.items():
                node = graph.nodes.get(nid)
                if node is None:
                    continue
                for ins in node.all_instructions():
                    counts[ins.origin] = counts.get(ins.origin, 0) + count
        return counts

"""The program graph: VLIW nodes connected by control-flow edges.

Execution semantics of one :class:`Node` (one machine cycle):

1. every operation in ``node.ops`` and the optional ``node.control``
   instruction read their source registers *simultaneously* at the start of
   the cycle (so operations within a node never see each other's results);
2. all destination registers are written at the end of the cycle;
3. control transfers along one outgoing edge: branch nodes pick
   ``succs[0]`` (condition true) or ``succs[1]`` (false); other nodes have a
   single successor; return nodes have none.

These are exactly the semantics percolation scheduling is defined over, and
the reason chained sequences must span *consecutive* nodes: two dependent
operations can never share a cycle without chaining hardware — which is the
hardware extension the analysis is hunting for.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import IRError
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import VirtualReg

#: Names :meth:`ProgramGraph.new_temp` hands out; group 1 is the counter.
_TEMP_NAME = re.compile(r"%f?r(\d+)$")


class Node:
    """One VLIW cycle: parallel operations plus optional control."""

    __slots__ = ("id", "ops", "control", "succs", "preds")

    def __init__(self, node_id: int):
        self.id = node_id
        self.ops: List[Instruction] = []
        # BR or RET instruction, executed in parallel with ops.
        self.control: Optional[Instruction] = None
        self.succs: List[int] = []
        self.preds: List[int] = []

    # -- classification -----------------------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.control is not None and self.control.op is Op.BR

    @property
    def is_return(self) -> bool:
        return self.control is not None and self.control.op is Op.RET

    @property
    def is_empty(self) -> bool:
        return not self.ops and self.control is None

    # -- dataflow summary -----------------------------------------------------------

    def all_instructions(self) -> Iterator[Instruction]:
        yield from self.ops
        if self.control is not None:
            yield self.control

    def uses(self) -> Set[VirtualReg]:
        used: Set[VirtualReg] = set()
        for ins in self.all_instructions():
            used.update(ins.uses())
        return used

    def defs(self) -> Set[VirtualReg]:
        defined: Set[VirtualReg] = set()
        for ins in self.ops:
            defined.update(ins.defs())
        return defined

    def __repr__(self) -> str:
        parts = [str(op) for op in self.ops]
        if self.control is not None:
            parts.append(str(self.control))
        body = "; ".join(parts) if parts else "<empty>"
        return f"<Node {self.id}: {body} -> {self.succs}>"


class ProgramGraph:
    """A function in program-graph form."""

    def __init__(self, name: str, params=(), local_arrays=(),
                 return_type: str = "void"):
        self.name = name
        self.params = list(params)
        self.local_arrays = list(local_arrays)
        self.return_type = return_type
        self.nodes: Dict[int, Node] = {}
        self.entry: Optional[int] = None
        self._ids = itertools.count(0)
        self._temp_ids = itertools.count(0)

    # -- construction ---------------------------------------------------------------

    def new_node(self) -> Node:
        node = Node(next(self._ids))
        self.nodes[node.id] = node
        return node

    def new_temp(self, is_float: bool = False) -> VirtualReg:
        """Fresh register for renaming transformations (``r0``, ``r1``...)."""
        prefix = "fr" if is_float else "r"
        return VirtualReg(f"%{prefix}{next(self._temp_ids)}", is_float)

    def continue_temps(self, source: "ProgramGraph") -> None:
        """Make :meth:`new_temp` count on past every ``%rN``/``%frN``
        register *source* reads or writes, so a temp made here never
        collides with a register taken over from *source*."""
        top = -1
        for node in source.nodes.values():
            for ins in node.all_instructions():
                for reg in ins.defs() + ins.uses():
                    match = _TEMP_NAME.match(reg.name)
                    if match is not None:
                        top = max(top, int(match.group(1)))
        self._temp_ids = itertools.count(top + 1)

    def add_edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.append(dst)
        self.nodes[dst].preds.append(src)

    def remove_edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.remove(dst)
        self.nodes[dst].preds.remove(src)

    def redirect_edge(self, src: int, old_dst: int, new_dst: int) -> None:
        """Replace the edge src->old_dst with src->new_dst (position kept,
        so a branch keeps its true/false slot)."""
        succs = self.nodes[src].succs
        succs[succs.index(old_dst)] = new_dst
        self.nodes[old_dst].preds.remove(src)
        self.nodes[new_dst].preds.append(src)

    def remove_node(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.preds or node.succs:
            raise IRError(f"cannot remove connected node {node_id}")
        if self.entry == node_id:
            raise IRError("cannot remove the entry node")
        del self.nodes[node_id]

    # -- traversal ------------------------------------------------------------------

    def successors(self, node_id: int) -> List[int]:
        return list(self.nodes[node_id].succs)

    def predecessors(self, node_id: int) -> List[int]:
        return list(self.nodes[node_id].preds)

    def reachable(self) -> Set[int]:
        """Node ids reachable from the entry."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            nid = stack.pop()
            if nid in seen or nid is None:
                continue
            seen.add(nid)
            stack.extend(self.nodes[nid].succs)
        return seen

    def prune_unreachable(self) -> int:
        """Delete unreachable nodes; returns how many were removed."""
        keep = self.reachable()
        dead = [nid for nid in self.nodes if nid not in keep]
        for nid in dead:
            node = self.nodes[nid]
            for succ in list(node.succs):
                if succ in self.nodes:
                    self.nodes[succ].preds = [
                        p for p in self.nodes[succ].preds if p != nid]
            del self.nodes[nid]
        for node in self.nodes.values():
            node.preds = [p for p in node.preds if p in keep]
        return len(dead)

    def rpo_order(self) -> List[int]:
        """Reverse postorder from the entry (forward dataflow order)."""
        seen: Set[int] = set()
        order: List[int] = []

        def visit(nid: int) -> None:
            stack = [(nid, iter(self.nodes[nid].succs))]
            seen.add(nid)
            while stack:
                cur, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.nodes[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(cur)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))

    def back_edges(self) -> List[Tuple[int, int]]:
        """Edges (tail, head) where head is an ancestor in the DFS tree."""
        color: Dict[int, int] = {}
        result: List[Tuple[int, int]] = []
        stack: List[Tuple[int, Iterator[int]]] = [
            (self.entry, iter(self.nodes[self.entry].succs))]
        color[self.entry] = 1
        while stack:
            nid, it = stack[-1]
            advanced = False
            for succ in it:
                if color.get(succ, 0) == 1:
                    result.append((nid, succ))
                elif color.get(succ, 0) == 0:
                    color[succ] = 1
                    stack.append((succ, iter(self.nodes[succ].succs)))
                    advanced = True
                    break
            if not advanced:
                color[nid] = 2
                stack.pop()
        return result

    # -- queries ----------------------------------------------------------------------

    def instruction_count(self) -> int:
        return sum(len(n.ops) + (1 if n.control else 0)
                   for n in self.nodes.values())

    def op_count(self) -> int:
        return sum(len(n.ops) for n in self.nodes.values())

    def node_count(self) -> int:
        return len(self.nodes)

    def registers(self) -> Set[VirtualReg]:
        regs: Set[VirtualReg] = set(
            p for p in self.params if isinstance(p, VirtualReg))
        for node in self.nodes.values():
            for ins in node.all_instructions():
                regs.update(ins.defs())
                regs.update(ins.uses())
        return regs

    def find_array(self, name: str):
        for arr in self.local_arrays:
            if arr.name == name:
                return arr
        for p in self.params:
            if not isinstance(p, VirtualReg) and p.name == name:
                return p
        return None

    def copy(self) -> "ProgramGraph":
        """Deep-copy the graph (instructions cloned, provenance preserved)."""
        dup = ProgramGraph(self.name, self.params, self.local_arrays,
                           self.return_type)
        dup._ids = itertools.count(max(self.nodes) + 1 if self.nodes else 0)
        dup.continue_temps(self)
        for nid, node in self.nodes.items():
            twin = Node(nid)
            twin.ops = [op.clone() for op in node.ops]
            # clone() refreshes uids but keeps origins; for a plain graph
            # copy we want identical provenance, which clone provides.
            twin.control = node.control.clone() if node.control else None
            twin.succs = list(node.succs)
            twin.preds = list(node.preds)
            dup.nodes[nid] = twin
        dup.entry = self.entry
        return dup

    def __repr__(self) -> str:
        return (f"<ProgramGraph {self.name}: {self.node_count()} nodes, "
                f"{self.instruction_count()} instructions>")


class GraphModule:
    """A module whose functions are program graphs (post-CFG form)."""

    def __init__(self, name: str, graphs: Dict[str, ProgramGraph],
                 global_arrays, array_initializers, global_scalars):
        self.name = name
        self.graphs = graphs
        self.global_arrays = dict(global_arrays)
        self.array_initializers = dict(array_initializers)
        self.global_scalars = dict(global_scalars)

    @property
    def entry(self) -> ProgramGraph:
        try:
            return self.graphs["main"]
        except KeyError:
            raise IRError(f"graph module {self.name!r} has no main")

    def get_graph(self, name: str) -> ProgramGraph:
        try:
            return self.graphs[name]
        except KeyError:
            raise IRError(f"unknown function {name!r}")

    def total_nodes(self) -> int:
        return sum(g.node_count() for g in self.graphs.values())

    def copy(self) -> "GraphModule":
        return GraphModule(
            self.name,
            {name: g.copy() for name, g in self.graphs.items()},
            self.global_arrays,
            self.array_initializers,
            self.global_scalars,
        )

    def __getstate__(self):
        # The compiled slot (lowering plus exec-compiled function
        # objects) cannot cross a pickle boundary: the study executor
        # ships modules to worker processes, and each process re-lowers
        # and regenerates on first run instead.
        state = self.__dict__.copy()
        state.pop("_compiled", None)
        return state

    def __repr__(self) -> str:
        return (f"<GraphModule {self.name}: {len(self.graphs)} graphs, "
                f"{self.total_nodes()} nodes>")

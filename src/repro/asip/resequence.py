"""Re-sequentialize a compacted VLIW graph for a single-issue ASIP.

The paper's end product (Figure 1) is a *single-issue* ASIP with chained
instructions plus a customized compiler whose scheduling exposes the chains.
We model that compiler by taking the percolation-scheduled graph — where
motion has already placed producers next to consumers — and flattening it
back to one operation per node, preserving the adjacency the motion created:

* node-internal ops are ordered so that an op consumed by the *next* node
  comes last and an op consuming the *previous* node's result comes first;
* sequentializing a parallel node must respect its internal
  anti-dependences (parallel ops read pre-cycle values).  Readers are
  ordered before writers; genuine read/write cycles (register swaps) and
  branch conditions overwritten in their own node are broken by *capture
  moves* (``t = mov r`` inserted up front, readers retargeted to ``t``).

The result is a graph the chain selector (:mod:`repro.asip.select`) can
pattern-match directly, and whose simulated cycle count is the single-issue
ASIP's real schedule length.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.cfg.graph import GraphModule, Node, ProgramGraph
from repro.errors import AsipError
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import VirtualReg
from repro.sim.diskcache import derive_stamp


def resequence_module(module: GraphModule) -> GraphModule:
    """Flatten every graph of *module* to one operation per node."""
    flat, _mapping = resequence_module_mapped(module)
    return flat


def resequence_module_mapped(module: GraphModule
                             ) -> Tuple[GraphModule, Dict]:
    """:func:`resequence_module` plus the node expansion it performed.

    The second element maps ``{graph name: {original node id: tuple of
    sequential node ids}}``.  Because every sequential node in a chain
    executes exactly as often as the original node it came from (control
    always enters a chain at its head and placeholders for empty nodes
    are spliced away, mapping to ``()``), a profile of the original
    graph determines the sequential graph's node counts exactly — the
    exploration executor uses this to *derive* the single-issue base
    processor's cycle count from the VLIW profiling run instead of
    simulating the sequential program a second time.

    Resequencing is deterministic in the module's content, so a stamped
    *module* gives a stamped result (:func:`~repro.sim.diskcache.
    derive_stamp`).
    """
    graphs = {}
    mapping: Dict[str, Dict[int, Tuple[int, ...]]] = {}
    for name, g in module.graphs.items():
        graphs[name], mapping[name] = _resequence_graph(g)
    flat = GraphModule(
        module.name,
        graphs,
        module.global_arrays,
        module.array_initializers,
        module.global_scalars,
    )
    return derive_stamp(flat, module, "resequenced"), mapping


def _resequence_graph(graph: ProgramGraph
                      ) -> Tuple[ProgramGraph, Dict[int, Tuple[int, ...]]]:
    out = ProgramGraph(graph.name, graph.params, graph.local_arrays,
                       graph.return_type)
    out.continue_temps(graph)  # capture moves must not reuse a renamed %r
    order = graph.rpo_order()
    # For adjacency-preserving intra-node ordering we need, per node, which
    # registers the following node consumes and which registers the
    # preceding node produced.  With multiple successors/predecessors we
    # use the union — a heuristic, as any ordering is semantically valid.
    produced_by: Dict[int, Set[str]] = {}
    consumed_by: Dict[int, Set[str]] = {}
    for nid in order:
        node = graph.nodes[nid]
        produced_by[nid] = {d.name for op in node.ops for d in op.defs()}
        consumed_by[nid] = {u.name for op in node.ops for u in op.uses()}

    first_of: Dict[int, int] = {}  # original node id -> first new node id
    last_of: Dict[int, int] = {}   # original node id -> last new node id
    chain_of: Dict[int, List[int]] = {}  # original node id -> its chain

    for nid in order:
        node = graph.nodes[nid]
        prev_produced: Set[str] = set()
        for p in node.preds:
            prev_produced |= produced_by.get(p, set())
        next_consumed: Set[str] = set()
        for s in node.succs:
            next_consumed |= consumed_by.get(s, set())

        control_clone = (node.control.clone()
                         if node.control is not None else None)
        ops = _sequential_order(out, node, control_clone,
                                prev_produced, next_consumed)
        new_ids: List[int] = []
        for op in ops:
            fresh = out.new_node()
            fresh.ops.append(op)
            new_ids.append(fresh.id)
        if control_clone is not None:
            fresh = out.new_node()
            fresh.control = control_clone
            new_ids.append(fresh.id)
        if not new_ids:  # empty node: keep a placeholder to carry edges
            fresh = out.new_node()
            new_ids.append(fresh.id)
        for a, b in zip(new_ids, new_ids[1:]):
            out.add_edge(a, b)
        first_of[nid] = new_ids[0]
        last_of[nid] = new_ids[-1]
        chain_of[nid] = new_ids

    for nid in order:
        for succ in graph.nodes[nid].succs:
            out.add_edge(last_of[nid], first_of[succ])
    out.entry = first_of[graph.entry]
    # Splice out placeholder nodes kept for originally empty nodes.
    from repro.opt.percolation import delete_empty_nodes
    delete_empty_nodes(out)
    expansion = {nid: tuple(i for i in chain_of[nid] if i in out.nodes)
                 for nid in order}
    return out, expansion


def _sequential_order(out: ProgramGraph, node: Node, control_clone,
                      prev_produced: Set[str],
                      next_consumed: Set[str]) -> List[Instruction]:
    """Order one node's parallel ops for sequential execution.

    Within the node every op reads pre-cycle values, so a reader of a
    register must run before its writer (anti-dependence).  Among valid
    orders we prefer consumers of the previous node's outputs early and
    producers for the next node late.  Returns cloned instructions,
    possibly preceded by capture moves.
    """
    ops = [op.clone() for op in node.ops]
    control = control_clone
    captures: List[Instruction] = []

    # Capture registers the control instruction reads but the node writes:
    # the branch must see the pre-cycle value even though it executes last
    # in the sequential order.  The caller passes the control *clone*, so
    # retargeting here never touches the input graph.
    writers: Dict[str, Instruction] = {}
    for op in ops:
        for d in op.defs():
            writers[d.name] = op

    def capture(reg: VirtualReg) -> VirtualReg:
        temp = out.new_temp(reg.is_float)
        mov = Instruction(Op.FMOV if reg.is_float else Op.MOV,
                          dest=temp, srcs=(reg,))
        captures.append(mov)
        return temp

    captured: Dict[str, VirtualReg] = {}

    # Handle control reads of node-written registers.
    if control is not None:
        for reg in control.uses():
            if reg.name in writers and reg.name not in captured:
                captured[reg.name] = capture(reg)

    # Anti-dependence graph among ops: edge reader -> writer.
    edges: Dict[int, Set[int]] = {i: set() for i in range(len(ops))}
    indeg = [0] * len(ops)

    def build_edges() -> bool:
        for i in range(len(ops)):
            edges[i] = set()
        for i, op in enumerate(ops):
            for reg in op.uses():
                if reg.name in captured:
                    continue
                w = writers.get(reg.name)
                if w is not None and w is not op:
                    j = ops.index(w)
                    edges[i].add(j)
        for i in range(len(ops)):
            indeg[i] = 0
        for i in range(len(ops)):
            for j in edges[i]:
                indeg[j] += 1
        return True

    # Break cycles by capturing registers until a topological order exists.
    for _ in range(len(ops) + 1):
        build_edges()
        if _topo_possible(edges, len(ops)):
            break
        # Find any register participating in a cycle and capture it.
        reg = _find_cycle_register(ops, writers, captured)
        if reg is None:  # pragma: no cover - defensive
            raise AsipError("cannot sequentialize node: unbreakable cycle")
        captured[reg.name] = capture(reg)

    # Retarget readers of captured registers.
    if captured:
        mapping = dict(captured)
        for op in ops:
            op.replace_uses({VirtualReg(name, t.is_float): t
                             for name, t in mapping.items()})
        if control is not None:
            control.replace_uses({VirtualReg(name, t.is_float): t
                                  for name, t in mapping.items()})

    ordered = _priority_topo(ops, edges, prev_produced, next_consumed)
    return captures + ordered


def _topo_possible(edges: Dict[int, Set[int]], n: int) -> bool:
    indeg = [0] * n
    for i in range(n):
        for j in edges[i]:
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return seen == n


def _find_cycle_register(ops, writers, captured):
    """Pick a register to capture: any node-written register still read
    by a different op (cheap heuristic; capturing always removes edges)."""
    for op in ops:
        for reg in op.uses():
            if reg.name in captured:
                continue
            w = writers.get(reg.name)
            if w is not None and w is not op:
                return reg
    return None


def _priority_topo(ops: List[Instruction], edges: Dict[int, Set[int]],
                   prev_produced: Set[str],
                   next_consumed: Set[str]) -> List[Instruction]:
    """Topological order with adjacency-friendly tie-breaking."""
    n = len(ops)
    indeg = [0] * n
    for i in range(n):
        for j in edges[i]:
            indeg[j] += 1

    def priority(i: int) -> Tuple[int, int, int]:
        op = ops[i]
        consumes_prev = any(u.name in prev_produced for u in op.uses())
        feeds_next = any(d.name in next_consumed for d in op.defs())
        # Lower sorts earlier: prev-consumers first, next-feeders last.
        return (0 if consumes_prev else 1, 1 if feeds_next else 0, i)

    ready = sorted((i for i in range(n) if indeg[i] == 0), key=priority)
    order: List[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        changed = False
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
                changed = True
        if changed:
            ready.sort(key=priority)
    if len(order) != n:  # pragma: no cover - cycles were broken above
        raise AsipError("internal: leftover cycle in node sequentialization")
    return [ops[i] for i in order]

"""Classic scalar cleanups over program graphs.

These are the enabling optimizations every serious compiler runs before
scheduling: constant folding, forward copy/constant propagation, move
coalescing (the reverse copy propagation that eliminates the
``t = op ...; mov var, t`` pattern the lowering stage emits), and global
dead-code elimination.  Eliminating moves matters for the paper's analysis:
a ``mov`` is not a chainable operation, so a producer feeding a consumer
*through* a move would hide the chain.

All passes operate on graphs whose nodes are still one-op wide (they run
before compaction) but are written defensively for wider nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cfg.graph import ProgramGraph
from repro.cfg.dataflow import RegisterBits, live_in_masks, live_out_mask
from repro.errors import OptimizationError
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import Constant, VirtualReg
from repro.sim.values import int_div, int_mod, shift_left, shift_right


def straight_chains(graph: ProgramGraph) -> List[List[int]]:
    """Maximal straight-line chains of nodes (single succ / single pred).

    A chain is a basic block of the one-op-per-node graph; local passes
    (propagation, coalescing, folding) run within chains.
    """
    in_chain: Set[int] = set()
    chains: List[List[int]] = []
    for nid in graph.rpo_order():
        if nid in in_chain:
            continue
        node = graph.nodes[nid]
        # Chain leaders: entry, join points, branch targets.
        preds = node.preds
        if nid != graph.entry and len(preds) == 1 \
                and len(graph.nodes[preds[0]].succs) == 1:
            continue  # interior of some chain
        chain = [nid]
        in_chain.add(nid)
        cur = node
        while (len(cur.succs) == 1
               and len(graph.nodes[cur.succs[0]].preds) == 1
               and cur.succs[0] not in in_chain
               and cur.succs[0] != chain[0]):
            nxt = cur.succs[0]
            chain.append(nxt)
            in_chain.add(nxt)
            cur = graph.nodes[nxt]
        chains.append(chain)
    return chains


# ---------------------------------------------------------------- folding


_FOLDABLE = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.DIV: int_div,
    Op.MOD: int_mod,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: shift_left,
    Op.SHR: shift_right,
    Op.CMPEQ: lambda a, b: int(a == b),
    Op.CMPNE: lambda a, b: int(a != b),
    Op.CMPLT: lambda a, b: int(a < b),
    Op.CMPLE: lambda a, b: int(a <= b),
    Op.CMPGT: lambda a, b: int(a > b),
    Op.CMPGE: lambda a, b: int(a >= b),
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FCMPEQ: lambda a, b: int(a == b),
    Op.FCMPNE: lambda a, b: int(a != b),
    Op.FCMPLT: lambda a, b: int(a < b),
    Op.FCMPLE: lambda a, b: int(a <= b),
    Op.FCMPGT: lambda a, b: int(a > b),
    Op.FCMPGE: lambda a, b: int(a >= b),
}

_FOLDABLE_UNARY = {
    Op.NEG: lambda a: -a,
    Op.NOT: lambda a: ~a,
    Op.FNEG: lambda a: -a,
    Op.ITOF: float,
    Op.FTOI: int,
}


def constant_fold(graph: ProgramGraph) -> int:
    """Fold operations whose operands are all constants into moves.

    Returns the number of folded instructions.  Division by a constant zero
    is left alone (it must still trap at run time).
    """
    folded = 0
    for node in graph.nodes.values():
        for i, ins in enumerate(node.ops):
            if ins.dest is None:
                continue
            if not all(isinstance(s, Constant) for s in ins.srcs):
                continue
            values = [s.value for s in ins.srcs]
            if ins.op in _FOLDABLE and len(values) == 2:
                if ins.op in (Op.DIV, Op.MOD) and values[1] == 0:
                    continue
                result = _FOLDABLE[ins.op](*values)
            elif ins.op in _FOLDABLE_UNARY and len(values) == 1:
                result = _FOLDABLE_UNARY[ins.op](*values)
            else:
                continue
            is_float = ins.dest.is_float
            mov_op = Op.FMOV if is_float else Op.MOV
            replacement = Instruction(
                mov_op, dest=ins.dest,
                srcs=(Constant(result, is_float),),
                origin=ins.origin, loc=ins.loc)
            node.ops[i] = replacement
            folded += 1
    return folded


# ------------------------------------------------------------- propagation


def copy_propagate(graph: ProgramGraph) -> int:
    """Forward copy/constant propagation within straight-line chains.

    After ``mov d, s`` later reads of ``d`` become reads of ``s`` until
    either register is redefined.  Returns the number of rewritten operand
    slots.
    """
    rewritten = 0
    for chain in straight_chains(graph):
        env: Dict[str, object] = {}  # dest name -> Constant or VirtualReg
        for nid in chain:
            node = graph.nodes[nid]
            # Read phase: rewrite uses against the environment.
            for ins in node.all_instructions():
                new_srcs = []
                changed = False
                for s in ins.srcs:
                    if isinstance(s, VirtualReg) and s.name in env:
                        new_srcs.append(env[s.name])
                        changed = True
                        rewritten += 1
                    else:
                        new_srcs.append(s)
                if changed:
                    ins.srcs = tuple(new_srcs)
            # Write phase: update the environment.
            defined = {d.name for ins in node.ops for d in ins.defs()}
            for name in list(env):
                value = env[name]
                if name in defined or (isinstance(value, VirtualReg)
                                       and value.name in defined):
                    del env[name]
            for ins in node.ops:
                if ins.op in (Op.MOV, Op.FMOV) and ins.dest is not None:
                    src = ins.srcs[0]
                    if isinstance(src, (Constant, VirtualReg)):
                        if isinstance(src, VirtualReg) \
                                and src.name == ins.dest.name:
                            continue
                        env[ins.dest.name] = src
    return rewritten


def _global_use_counts(graph: ProgramGraph) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for node in graph.nodes.values():
        for ins in node.all_instructions():
            for r in ins.uses():
                counts[r.name] = counts.get(r.name, 0) + 1
    return counts


def _global_def_counts(graph: ProgramGraph) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for node in graph.nodes.values():
        for ins in node.ops:
            for r in ins.defs():
                counts[r.name] = counts.get(r.name, 0) + 1
    return counts


def coalesce_moves(graph: ProgramGraph) -> int:
    """Eliminate ``t = op ...; mov d, t`` patterns within chains.

    When ``t`` is a single-def register whose only use is the move, the
    defining operation retargets to ``d`` directly and the move dies,
    provided ``d`` is neither read nor written in between.  Returns the
    number of moves removed.
    """
    removed = 0
    uses = _global_use_counts(graph)
    defs = _global_def_counts(graph)
    for chain in straight_chains(graph):
        # Sequence number of the defining instruction of each register and
        # of the last touch (read or write) of each register.  A touch at
        # the def's own sequence number is the defining instruction reading
        # its sources — harmless (reads happen before writes), so the
        # interference check below uses <=.
        def_site: Dict[str, Tuple[int, Instruction]] = {}
        touched_since: Dict[str, int] = {}
        seq = 0
        for nid in chain:
            node = graph.nodes[nid]
            for ins in list(node.ops):
                seq += 1
                if ins.op in (Op.MOV, Op.FMOV) and ins.dest is not None \
                        and isinstance(ins.srcs[0], VirtualReg):
                    t = ins.srcs[0]
                    d = ins.dest
                    site = def_site.get(t.name)
                    if (site is not None
                            and uses.get(t.name, 0) == 1
                            and defs.get(t.name, 0) == 1
                            and t.name != d.name
                            and touched_since.get(d.name, -1) <= site[0]
                            and site[1].op is not Op.CALL):
                        site[1].dest = d
                        node.ops.remove(ins)
                        removed += 1
                        uses[t.name] = 0
                        del def_site[t.name]
                        def_site[d.name] = site
                        touched_since[d.name] = seq
                        continue
                for r in ins.uses():
                    touched_since[r.name] = seq
                for r in ins.defs():
                    def_site[r.name] = (seq, ins)
                    touched_since[r.name] = seq
            if node.control is not None:
                seq += 1
                for r in node.control.uses():
                    touched_since[r.name] = seq
    return removed


# ----------------------------------------------------------------- dce


def dead_code_elimination(graph: ProgramGraph) -> int:
    """Remove pure operations whose destination is dead.

    Iterates liveness to fixpoint (removing one layer of dead code can kill
    another).  Stores, calls and control are never removed.  A node
    unreachable from the entry has nothing live out, so its pure
    operations all go.  Returns the total number of deleted operations.
    """
    total = 0
    bits = RegisterBits()
    while True:
        order = graph.rpo_order()
        live_in = live_in_masks(graph, order, bits)
        reachable = set(order)
        removed = 0
        for nid, node in graph.nodes.items():
            live_out = (live_out_mask(graph, nid, live_in)
                        if nid in reachable else 0)
            survivors = []
            for ins in node.ops:
                if ins.dest is None or ins.has_side_effects or ins.is_call:
                    survivors.append(ins)
                elif bits.get(ins.dest, 0) & live_out:
                    survivors.append(ins)
                else:
                    removed += 1
            node.ops = survivors
        total += removed
        if removed == 0:
            return total


def run_cleanups(graph: ProgramGraph, max_rounds: int = 8) -> Dict[str, int]:
    """Run fold / propagate / coalesce / DCE to a fixpoint.

    Returns pass statistics for reporting and tests.
    """
    stats = {"folded": 0, "propagated": 0, "coalesced": 0, "dce": 0}
    for _ in range(max_rounds):
        changed = 0
        changed += (n := constant_fold(graph))
        stats["folded"] += n
        changed += (n := copy_propagate(graph))
        stats["propagated"] += n
        changed += (n := coalesce_moves(graph))
        stats["coalesced"] += n
        changed += (n := dead_code_elimination(graph))
        stats["dce"] += n
        if changed == 0:
            break
    return stats

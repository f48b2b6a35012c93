"""Cross-tier invariant checks: lowered words against the graph IR.

``verify_lowered_graph`` proves one :class:`_LoweredGraph` consistent with
the :class:`ProgramGraph` it claims to lower — without executing a word:

* the node and edge tables mirror the graph exactly (same nodes, same
  successor lists, same order);
* the frame plans (parameters, local arrays) match the graph signature;
* branch-counter coverage is exactly bijective with what
  :meth:`_LoweredGraph.resolve_counters` expects: the counted-edge set
  (every edge that is neither derived nor zero-class) is carried by branch
  words exactly once each, every fused op+jump word accounts for exactly
  one derived edge, and the profile-reconstruction tables (``_in_edges``,
  ``_derived_out``, ``_derived_in_count``, ``_edge_dst_idx``) cover every
  non-zero edge exactly once with consistent endpoints;
* all counted edges into one destination node branch to the same target
  word, and edges into the entry node target the entry word;
* when every graph node is reachable, every word is reachable in the
  reconstructed word CFG (dead words are how a mispatched successor
  reference shows up).

``verify_lowered_module`` runs the per-word layout checks
(:func:`repro.analysis.cfg.verify_words`) plus the cross-checks above for
every graph of a module, and is what the disk-cache load path runs under
``REPRO_VERIFY=1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis import VerifyResult
from repro.analysis.cfg import (WordCFG, _is_degenerate_br, build_word_cfg,
                                dead_words, verify_words)
from repro.ir.values import VirtualReg
from repro.sim import engine as _eng

#: Opcodes that consume one derived (fall-through/jump) edge each.
_DERIVED_EDGE_OPS = frozenset({_eng.J, _eng.JB} | set(_eng._FUSED_FORM.values()))


def verify_graph(graph) -> VerifyResult:
    """Structural sanity of one :class:`ProgramGraph` (the reference tier).

    These are the properties every lowering tier assumes of a well-formed
    optimized benchmark graph; a malformed graph is still *loweable* (the
    lowerers emit error words), so violations here point at the optimizer,
    not the artifact.
    """
    result = VerifyResult()
    name = graph.name
    nodes = graph.nodes
    result.check(graph.entry in nodes, "graph-entry",
                 f"entry node {graph.entry!r} is not in the graph", name)
    for nid, node in nodes.items():
        for succ in node.succs:
            if not result.check(succ in nodes, "graph-edge",
                                f"node {nid} lists unknown successor "
                                f"{succ}", name):
                continue
            result.check(nid in nodes[succ].preds, "graph-edge-mirror",
                         f"edge {nid}->{succ} is missing from the "
                         f"successor's pred list", name)
        for pred in node.preds:
            if not result.check(pred in nodes, "graph-edge",
                                f"node {nid} lists unknown predecessor "
                                f"{pred}", name):
                continue
            result.check(nid in nodes[pred].succs, "graph-edge-mirror",
                         f"pred edge {pred}->{nid} is missing from the "
                         f"predecessor's succ list", name)
        if node.is_branch:
            result.check(len(node.succs) <= 2, "graph-branch-arity",
                         f"branch node {nid} has {len(node.succs)} "
                         f"successors", name)
        elif node.is_return:
            result.check(not node.succs, "graph-return-arity",
                         f"return node {nid} has successors", name)
        else:
            result.check(len(node.succs) == 1, "graph-fallthrough-arity",
                         f"node {nid} has {len(node.succs)} successors "
                         f"but no branch", name)
    return result


def verify_lowered_graph(graph, lg,
                         cfg: Optional[WordCFG] = None) -> VerifyResult:
    """Cross-check one lowered graph against its source program graph."""
    result = verify_words(lg)
    name = lg.name
    result.check(lg.name == graph.name, "graph-name",
                 f"lowered graph is named {lg.name!r}, source graph "
                 f"{graph.name!r}", name)

    node_ids = list(graph.nodes)
    idx_of = {nid: i for i, nid in enumerate(node_ids)}
    result.check(lg.node_ids == node_ids, "node-table",
                 "lowered node table does not match the graph's nodes "
                 "(count or order)", name)

    expected_edges = [(nid, succ) for nid in node_ids
                      for succ in graph.nodes[nid].succs]
    if not result.check(
            list(lg.edge_pairs) == expected_edges, "edge-table",
            f"lowered edge table has {len(lg.edge_pairs)} edges, the graph "
            f"implies {len(expected_edges)} (or the order differs)", name):
        # Everything below indexes edge_pairs; bail out on a broken table.
        return result
    n_edges = len(lg.edge_pairs)
    n_nodes = len(node_ids)

    # -- frame plans ---------------------------------------------------------------
    result.check(lg.n_params == len(graph.params), "param-count",
                 f"n_params={lg.n_params}, graph has {len(graph.params)} "
                 f"parameters", name)
    named = lg.n_regs - 1 - lg.scratch_watermark
    if result.check(len(lg.param_plan) == len(graph.params), "param-plan",
                    f"parameter plan covers {len(lg.param_plan)} of "
                    f"{len(graph.params)} parameters", name):
        for (is_reg, slot, pname), param in zip(lg.param_plan,
                                                graph.params):
            want_reg = isinstance(param, VirtualReg)
            result.check(
                is_reg == want_reg and pname == param.name,
                "param-plan",
                f"plan entry {pname!r} disagrees with parameter "
                f"{param.name!r}", name)
            limit = named if is_reg else lg.n_arrays - 1
            result.check((1 if is_reg else 0) <= slot <= limit,
                         "param-plan",
                         f"parameter {pname!r} slot {slot} is outside the "
                         f"frame", name)
    plan_names = [symbol.name for _, symbol in lg.local_plan]
    graph_locals = [symbol.name for symbol in graph.local_arrays]
    result.check(plan_names == graph_locals, "local-plan",
                 f"local-array plan {plan_names} does not match graph "
                 f"locals {graph_locals}", name)

    # -- entry ---------------------------------------------------------------------
    want_entry_idx = idx_of.get(graph.entry, -1)
    result.check(lg.entry_idx == want_entry_idx, "entry-index",
                 f"entry_idx={lg.entry_idx}, graph entry implies "
                 f"{want_entry_idx}", name)
    result.check((lg.entry_word is None) == (want_entry_idx < 0),
                 "entry-ref",
                 "entry word presence disagrees with the entry node", name)

    # -- counters and profile tables -----------------------------------------------
    result.check(lg.n_counters >= n_nodes, "counter-count",
                 f"n_counters={lg.n_counters} is below the node count "
                 f"{n_nodes}", name)
    tables_ok = result.check(
        len(lg._in_edges) == lg.n_counters
        and len(lg._derived_out) == lg.n_counters
        and len(lg._derived_in_count) == lg.n_counters
        and len(lg._edge_dst_idx) == n_edges,
        "profile-tables",
        "profile-reconstruction tables are mis-sized", name)
    if not tables_ok:
        return result

    zero: Set[int] = set()
    for e, dst_idx in enumerate(lg._edge_dst_idx):
        if dst_idx == -1:
            zero.add(e)
            continue
        if not result.check(0 <= dst_idx < lg.n_counters, "edge-dst",
                            f"edge {e} feeds counter {dst_idx}, outside "
                            f"[0, {lg.n_counters})", name):
            continue
        dst_nid = lg.edge_pairs[e][1]
        if dst_nid in idx_of:
            result.check(dst_idx == idx_of[dst_nid], "edge-dst",
                         f"edge {e} -> node {dst_nid} feeds counter "
                         f"{dst_idx}, expected {idx_of[dst_nid]}", name)
        else:
            result.check(n_nodes <= dst_idx < lg.n_counters, "edge-dst",
                         f"dangling edge {e} must feed a stub counter, "
                         f"feeds {dst_idx}", name)

    dangling = {dst for (src, dst) in lg.edge_pairs if dst not in idx_of}
    resolved_dangling = {lg.edge_pairs[e][1]
                         for e, d in enumerate(lg._edge_dst_idx)
                         if d != -1 and lg.edge_pairs[e][1] not in idx_of}
    result.check(lg.n_counters - n_nodes == len(resolved_dangling),
                 "stub-counters",
                 f"{lg.n_counters - n_nodes} stub counters for "
                 f"{len(resolved_dangling)} dangling targets "
                 f"({len(dangling)} total dangling)", name)

    derived: Set[int] = set()
    derived_dup = False
    for i, out in enumerate(lg._derived_out):
        for e in out:
            if not result.check(0 <= e < n_edges, "derived-edge",
                                f"derived edge {e} out of range", name):
                continue
            if e in derived:
                derived_dup = True
            derived.add(e)
            if i < n_nodes:
                result.check(lg.edge_pairs[e][0] == node_ids[i],
                             "derived-edge",
                             f"edge {e} listed as derived output of node "
                             f"{node_ids[i]}, but its source is "
                             f"{lg.edge_pairs[e][0]}", name)
            else:
                result.check(False, "derived-edge",
                             f"stub counter {i} lists derived output "
                             f"edges", name)
    result.check(not derived_dup, "derived-edge",
                 "an edge appears in more than one derived-output list",
                 name)
    result.check(not (derived & zero), "edge-class",
                 "an edge is both zero-class and derived", name)
    counted = set(range(n_edges)) - zero - derived

    flat_in = [e for lst in lg._in_edges for e in lst]
    result.check(sorted(flat_in) == sorted(set(range(n_edges)) - zero),
                 "in-edge-cover",
                 "in-edge lists do not cover every non-zero edge exactly "
                 "once", name)
    for i, lst in enumerate(lg._in_edges):
        for e in lst:
            if 0 <= e < n_edges:
                result.check(lg._edge_dst_idx[e] == i, "in-edge-cover",
                             f"edge {e} is listed as an in-edge of "
                             f"counter {i} but feeds "
                             f"{lg._edge_dst_idx[e]}", name)
    for i in range(lg.n_counters):
        want = sum(1 for e in derived
                   if 0 <= e < n_edges and lg._edge_dst_idx[e] == i)
        result.check(lg._derived_in_count[i] == want, "derived-in-count",
                     f"counter {i} expects {lg._derived_in_count[i]} "
                     f"derived in-edges, the tables imply {want}", name)

    # -- counter coverage: branch words vs. the counted-edge set -------------------
    br_counters: List[int] = []
    target_of: Dict[int, list] = {}
    jump_words = 0
    for word in lg.words:
        if not isinstance(word, list) or not word:
            continue
        if word[0] in _DERIVED_EDGE_OPS:
            jump_words += 1
        if word[0] != _eng.BR or len(word) != 6:
            continue
        legs = [(word[2], word[3])]
        if not _is_degenerate_br(word):
            legs.append((word[4], word[5]))
        for e, target in legs:
            br_counters.append(e)
            if not (isinstance(e, int) and 0 <= e < n_edges):
                continue
            dst_idx = lg._edge_dst_idx[e]
            prev = target_of.setdefault(dst_idx, target)
            result.check(prev is target, "branch-target",
                         f"counted edges into counter {dst_idx} branch to "
                         f"different target words", name)
    result.check(
        sorted(br_counters) == sorted(counted), "counter-coverage",
        f"branch words carry counters {sorted(br_counters)}, the edge "
        f"classes imply {sorted(counted)} — coverage is not bijective",
        name)
    result.check(jump_words == len(derived), "fused-edge-count",
                 f"{jump_words} jump/fused words for {len(derived)} "
                 f"derived edges", name)
    if lg.entry_idx in target_of and lg.entry_word is not None:
        result.check(target_of[lg.entry_idx] is lg.entry_word,
                     "branch-target",
                     "counted edges into the entry node do not target the "
                     "entry word", name)

    # -- dead words ----------------------------------------------------------------
    reachable_nodes = graph.reachable() if graph.entry in graph.nodes \
        else set()
    if set(node_ids) == set(reachable_nodes):
        if cfg is None:
            cfg = build_word_cfg(lg)
        dead = dead_words(lg, cfg)
        result.check(
            not dead, "dead-word",
            f"words {dead[:6]} are unreachable from the entry word "
            f"although every graph node is reachable", name)
    return result


def verify_lowered_module(module, lowered) -> VerifyResult:
    """Verify every lowered graph of *module*."""
    result = VerifyResult()
    graphs = getattr(lowered, "graphs", lowered)
    result.check(set(graphs) == set(module.graphs), "graph-table",
                 f"lowered module covers graphs {sorted(graphs)}, the "
                 f"module defines {sorted(module.graphs)}")
    for gname in sorted(set(graphs) & set(module.graphs)):
        result.merge(verify_lowered_graph(module.graphs[gname],
                                          graphs[gname]))
    return result

"""The optimization-level driver (the paper's three compiler configurations).

``optimize_module`` takes a linear :class:`~repro.ir.module.Module` (front
end output) and produces the program-graph module the sequence analyzer and
simulator consume, at one of the paper's levels:

====== ================================================================
Level  Meaning (paper §5, step 3)
====== ================================================================
0      no optimization — the sequential one-op-per-node graph
1      full optimization with loop pipelining and percolation
       scheduling but **without** register renaming
2      level 1 plus register renaming
====== ================================================================

Both level 1 and 2 run the classic cleanups (fold/propagate/coalesce/DCE)
and loop-invariant code motion first — "full optimization" — then loop
pipelining (unroll), then percolation compaction, then a final DCE.

Everything before compaction is the same at both levels, so a caller
that wants both can build it once: :func:`optimize_prefix` returns that
shared prefix (an :class:`OptimizedPrefix`), and ``optimize_module(...,
prefix=...)`` finishes it at one level, compacting the prefix's graphs
in place.  The study matrix (:func:`repro.exec.study.optimized_levels`)
hands level 1 :meth:`OptimizedPrefix.copy` and level 2 the prefix
itself, that way round because renaming draws fresh temps from each
graph's own counter, which :meth:`~repro.cfg.graph.ProgramGraph.copy`
recomputes, while level 1 makes no temps and no nodes.  Either way each
level's ``(graph_module, report)`` equals what ``optimize_module`` gives
without a prefix (``tests/test_shared_prefix.py``).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cfg.build import build_module_graphs
from repro.cfg.graph import GraphModule
from repro.ir.module import Module
from repro.opt.classic import dead_code_elimination, run_cleanups
from repro.opt.licm import hoist_loop_invariants
from repro.opt.looppipe import PipelineStats, pipeline_loops
from repro.opt.percolation import (CompactionStats, compact_graph,
                                   delete_empty_nodes)


class OptLevel(enum.IntEnum):
    """The paper's three optimization levels."""

    NONE = 0
    PIPELINED = 1
    RENAMED = 2

    @property
    def uses_renaming(self) -> bool:
        return self is OptLevel.RENAMED

    @property
    def label(self) -> str:
        return {
            OptLevel.NONE: "No Optimization",
            OptLevel.PIPELINED: "Pipelined",
            OptLevel.RENAMED: "Pipelined + Renamed",
        }[self]


@dataclass
class OptimizationReport:
    """Per-function statistics from one ``optimize_module`` run."""

    level: OptLevel
    cleanups: Dict[str, Dict[str, int]] = field(default_factory=dict)
    licm_hoisted: Dict[str, int] = field(default_factory=dict)
    pipelining: Dict[str, PipelineStats] = field(default_factory=dict)
    compaction: Dict[str, CompactionStats] = field(default_factory=dict)

    def total_moves(self) -> int:
        return sum(c.moves + c.renames for c in self.compaction.values())

    def total_unrolled(self) -> int:
        return sum(p.loops_unrolled for p in self.pipelining.values())


@dataclass
class OptimizedPrefix:
    """What levels 1 and 2 share: *source*'s graphs after the cleanups,
    LICM, DCE and loop pipelining, and those passes' statistics.

    ``settings`` is ``(unroll_factor, enable_pipelining, enable_licm)``.
    :func:`optimize_module` compacts ``graph_module`` in place, so one
    prefix finishes one level; :meth:`copy` makes another.
    """

    source: Module
    settings: Tuple[int, bool, bool]
    graph_module: Optional[GraphModule]
    cleanups: Dict[str, Dict[str, int]] = field(default_factory=dict)
    licm_hoisted: Dict[str, int] = field(default_factory=dict)
    pipelining: Dict[str, PipelineStats] = field(default_factory=dict)

    def copy(self) -> "OptimizedPrefix":
        """A prefix sharing no graph, instruction or statistics object
        with this one (the graphs' temp counters are recomputed, see
        :meth:`~repro.cfg.graph.ProgramGraph.copy`)."""
        return OptimizedPrefix(
            self.source, self.settings, self.graph_module.copy(),
            {name: dict(c) for name, c in self.cleanups.items()},
            dict(self.licm_hoisted),
            {name: dataclasses.replace(p)
             for name, p in self.pipelining.items()})


def optimize_prefix(module: Module, unroll_factor: int = 2,
                    enable_pipelining: bool = True,
                    enable_licm: bool = True) -> OptimizedPrefix:
    """Build *module*'s graphs and run everything levels 1 and 2 share;
    the switches are :func:`optimize_module`'s."""
    prefix = OptimizedPrefix(
        module, (unroll_factor, enable_pipelining, enable_licm),
        build_module_graphs(module))
    for name, graph in prefix.graph_module.graphs.items():
        prefix.cleanups[name] = run_cleanups(graph)
        if enable_licm:
            prefix.licm_hoisted[name] = hoist_loop_invariants(graph)
        dead_code_elimination(graph)
        if enable_pipelining:
            prefix.pipelining[name] = pipeline_loops(graph,
                                                     factor=unroll_factor)
    return prefix


def optimize_module(module: Module, level: OptLevel,
                    unroll_factor: int = 2,
                    max_width: Optional[int] = None,
                    enable_pipelining: bool = True,
                    enable_compaction: bool = True,
                    enable_licm: bool = True,
                    prefix: Optional[OptimizedPrefix] = None,
                    ) -> "tuple[GraphModule, OptimizationReport]":
    """Compile *module* to a program-graph module at *level*.

    Returns ``(graph_module, report)``.  The input module is not modified;
    graphs are built fresh from the linear code.  The ``enable_*`` switches
    exist for ablation studies — the paper's levels 1/2 correspond to all
    of them on (``unroll_factor >= 2`` gives loop pipelining; ``1``
    disables it without disabling percolation).

    With *prefix* (level 1 or 2 only) the prefix's graphs are finished
    instead of built afresh: it must come from :func:`optimize_prefix`
    on *module* with the same switches, and it is used up — its
    ``graph_module`` becomes the returned one.
    """
    level = OptLevel(level)
    if prefix is None:
        if level is OptLevel.NONE:
            return build_module_graphs(module), OptimizationReport(level)
        prefix = optimize_prefix(module, unroll_factor, enable_pipelining,
                                 enable_licm)
    elif (level is OptLevel.NONE or prefix.source is not module
          or prefix.graph_module is None
          or prefix.settings != (unroll_factor, enable_pipelining,
                                 enable_licm)):
        raise ValueError("the prefix is used up, or was not built from "
                         "this module with these switches for level 1/2")
    gm, prefix.graph_module = prefix.graph_module, None
    report = OptimizationReport(level=level, cleanups=prefix.cleanups,
                                licm_hoisted=prefix.licm_hoisted,
                                pipelining=prefix.pipelining)
    for name, graph in gm.graphs.items():
        if enable_compaction:
            report.compaction[name] = compact_graph(
                graph, rename=level.uses_renaming, max_width=max_width)
        dead_code_elimination(graph)
        delete_empty_nodes(graph)
        graph.prune_unreachable()
    return gm, report

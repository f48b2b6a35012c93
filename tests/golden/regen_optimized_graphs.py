"""Regenerate ``optimized_graphs.json``: the optimizer's golden pin.

For every suite benchmark at optimization levels 1 and 2, and every
function of it, the snapshot records the sha256 of a canonical rendering
of the optimized program graph plus the percolation
:class:`~repro.opt.percolation.CompactionStats`.  ``tests/test_golden_opt.py``
diffs a fresh snapshot against the committed file, so any change to what
the optimizer emits fails the suite until this script is re-run and its
diff is read.

The rendering lists the entry node, then every node in id order with its
ops (``format_instruction``), its control instruction, its successors and
its predecessors.  Instruction uids are dropped and ``origin`` provenance
is renumbered by first appearance, because uids come from a process-wide
counter and depend on whatever ran before.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_optimized_graphs.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.cfg.graph import ProgramGraph
from repro.ir.printer import format_instruction
from repro.opt.pipeline import OptLevel, optimize_module
from repro.suite.registry import all_benchmarks
from repro.suite.runner import compile_benchmark

GOLDEN_PATH = Path(__file__).with_name("optimized_graphs.json")
LEVELS = (OptLevel.PIPELINED, OptLevel.RENAMED)


def render_graph(graph: ProgramGraph) -> str:
    """Canonical, uid-free text of *graph* (see the module docstring)."""
    origins: Dict[int, int] = {}

    def line(tag: str, ins) -> str:
        origin = origins.setdefault(ins.origin, len(origins))
        return f"  {tag} {format_instruction(ins)} ~{origin}"

    out: List[str] = [f"entry {graph.entry}"]
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        out.append(f"node {nid}")
        out.extend(line("op", ins) for ins in node.ops)
        if node.control is not None:
            out.append(line("ctl", node.control))
        out.append(f"  succs {node.succs}")
        out.append(f"  preds {node.preds}")
    return "\n".join(out) + "\n"


def snapshot() -> dict:
    """``{benchmark: {level: {function: {"sha256", "compaction"}}}}``."""
    result: dict = {}
    for spec in all_benchmarks():
        module = compile_benchmark(spec)
        per_level: dict = {}
        for level in LEVELS:
            gm, report = optimize_module(module, level)
            per_level[str(int(level))] = {
                name: {
                    "sha256": hashlib.sha256(
                        render_graph(graph).encode()).hexdigest(),
                    "compaction": dataclasses.asdict(
                        report.compaction[name]),
                }
                for name, graph in sorted(gm.graphs.items())
            }
        result[spec.name] = per_level
    return result


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(snapshot()))
    print(f"wrote {GOLDEN_PATH}")

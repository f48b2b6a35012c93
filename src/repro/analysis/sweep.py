"""Drive the range analysis across the benchmark suite (``repro verify``).

For every benchmark x optimization level the optimized module is lowered
and the interval analysis (:mod:`repro.analysis.ranges`) classifies
every array access SAFE / UNKNOWN / UNSAFE.  A definite UNSAFE access,
or a crash of the analysis, fails the sweep without the program ever
being executed.  The result renders as a Markdown table of access
counts per (benchmark, level), with any violations listed below it.

Compiled artifacts are not re-analysed here: the committed goldens pin
every benchmark's optimized graphs and emitted sources, and the
verify-on-load gate compares each cached entry with a fresh generation
(:func:`repro.sim.codegen.generate_module`) or optimization
(:func:`repro.exec.study.optimized_module`).

:func:`scan_cache_entries` is the self-contained sibling used by
``repro cache show --verify``: it walks a disk cache directory and
classifies every entry as well-formed or corrupt from the payload alone
(no source module needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import VerifyResult, Violation

DEFAULT_LEVELS = (0, 1, 2)


@dataclass
class SweepCell:
    """One (benchmark, level) range-analysis outcome: access counts by
    class, accesses classified, and violations."""

    benchmark: str
    level: int
    counts: Dict[str, int]
    checks: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SweepReport:
    """Every cell of one ``repro verify`` sweep."""

    cells: List[SweepCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def checks(self) -> int:
        return sum(cell.checks for cell in self.cells)

    @property
    def ranges(self) -> Dict[Tuple[str, int], Dict[str, int]]:
        """(benchmark, level) -> {"SAFE": n, "UNKNOWN": n, "UNSAFE": n}."""
        return {(cell.benchmark, cell.level): cell.counts
                for cell in self.cells}

    @property
    def violations(self) -> List[Tuple[SweepCell, Violation]]:
        return [(cell, v) for cell in self.cells for v in cell.violations]


def _range_cell(benchmark: str, level: int, graph_module) -> SweepCell:
    """Run the interval analysis over one optimized module.

    Every classified access counts as one check; a definite ``UNSAFE``
    access is a static violation — the program is reported without ever
    being executed.
    """
    from repro.analysis import ranges as _ranges

    try:
        mranges = _ranges.analyze_module(graph_module)
    except Exception as exc:  # a crash is itself a finding
        return SweepCell(
            benchmark, level,
            {_ranges.SAFE: 0, _ranges.UNSAFE: 0, _ranges.UNKNOWN: 0},
            checks=1, violations=[Violation(
                "verifier-crash", f"{type(exc).__name__}: {exc}",
                benchmark)])
    counts = mranges.counts()
    cell = SweepCell(benchmark, level, counts, checks=sum(counts.values()))
    for graph_name, proof in mranges.unsafe_accesses():
        iv = proof.index_interval
        span = "?" if iv is None else f"[{iv[0]}, {iv[1]}]"
        cell.violations.append(Violation(
            "bounds-unsafe",
            f"{proof.kind} {proof.array or '<array>'}{span} is out of "
            f"bounds for length {proof.length} at word "
            f"{proof.word_index}", graph_name))
    return cell


def run_sweep(benchmarks: Optional[Sequence[str]] = None,
              levels: Sequence[int] = DEFAULT_LEVELS) -> SweepReport:
    """Range-analyse every (benchmark, level) module of the suite."""
    from repro.opt.pipeline import OptLevel, optimize_module
    from repro.suite.registry import all_benchmarks, get_benchmark
    from repro.suite.runner import compile_benchmark

    if benchmarks is None:
        specs = all_benchmarks()
    else:
        specs = [get_benchmark(name) for name in benchmarks]
    report = SweepReport()
    for spec in specs:
        module = compile_benchmark(spec)
        for level in levels:
            graph_module, _ = optimize_module(module, OptLevel(level))
            report.cells.append(_range_cell(spec.name, level, graph_module))
    return report


def render_markdown(report: SweepReport) -> str:
    """The ``repro verify`` summary: one row per (benchmark, level)."""
    lines = ["# Static artifact verification", "",
             "## Range analysis", "",
             "| benchmark | level | SAFE | UNKNOWN | UNSAFE |",
             "|---|---|---|---|---|"]
    for cell in report.cells:
        counts = cell.counts
        unsafe = counts.get("UNSAFE", 0)
        lines.append(
            f"| {cell.benchmark} | {cell.level} | {counts.get('SAFE', 0)} | "
            f"{counts.get('UNKNOWN', 0)} | "
            + (f"**{unsafe}**" if unsafe else "0") + " |")
    lines.append("")
    failed = sum(1 for cell in report.cells if not cell.ok)
    lines.append(f"{report.checks} accesses classified over "
                 f"{len(report.cells)} cells; {failed} cell(s) failed.")
    if failed:
        lines += ["", "## Violations", ""]
        for cell, violation in report.violations:
            lines.append(f"- `{cell.benchmark}` L{cell.level}: {violation}")
    return "\n".join(lines) + "\n"


def report_json(report: SweepReport,
                lint: Optional[VerifyResult] = None) -> Dict:
    """Machine-readable form of one sweep (``repro verify --json``)."""
    doc: Dict = {
        "ok": report.ok and (lint is None or lint.ok),
        "checks": report.checks,
        "cells": [
            {"benchmark": cell.benchmark, "level": cell.level,
             "checks": cell.checks, "ok": cell.ok}
            for cell in report.cells],
        "violations": [
            {"benchmark": cell.benchmark, "level": cell.level,
             "invariant": violation.invariant,
             "graph": violation.graph, "detail": violation.detail}
            for cell, violation in report.violations],
        "ranges": [
            {"benchmark": cell.benchmark, "level": cell.level,
             **cell.counts}
            for cell in report.cells],
    }
    if lint is not None:
        doc["lint"] = {
            "ok": lint.ok,
            "checks": lint.checks,
            "findings": [
                {"invariant": violation.invariant,
                 "graph": violation.graph, "detail": violation.detail}
                for violation in lint.violations],
        }
    return doc


# -- cache scanning (repro cache show --verify) ------------------------------------


def _payload_problem(kind: str, payload) -> Optional[str]:
    """Why one cache payload is corrupt, or ``None`` when it is not.

    No source module is available, so each payload is checked against
    itself.  A codegen payload's stored graphs must re-emit its stored
    sources and constants, its marshalled code blob must match its
    digest, and compiling the stored sources must give the blob's code
    objects.  An optimized payload must be a ``(GraphModule,
    OptimizationReport)`` pair whose nodes name only successors in
    their own graph."""
    import hashlib

    from repro.sim.codegen import (_compile_sources, emit_sources,
                                   payload_mismatch)
    from repro.sim.engine import LoweredModule

    if kind == "optimized":
        return _optimized_problem(payload)
    if kind != "codegen":
        return None
    sources, consts = emit_sources(
        LoweredModule.from_graphs(payload["graphs"]))
    mismatch = payload_mismatch(payload, payload["graphs"], sources,
                                consts, _compile_sources("scan", sources))
    if mismatch in ("sources", "consts"):
        return ("re-emission: the stored graphs do not re-emit the "
                "stored sources")
    blob = payload.get("code")
    if blob is not None and \
            hashlib.sha256(blob).hexdigest() != payload.get("code_sha"):
        return ("code-sha: marshalled code blob does not match its "
                "recorded digest")
    if mismatch is not None:
        return ("code-blob: the marshalled code is not the stored "
                "sources compiled")
    return None


def _optimized_problem(payload) -> Optional[str]:
    from repro.exec.study import optimized_pair

    try:
        graph_module, _report = optimized_pair(payload)
    except TypeError as exc:
        return f"shape: {exc}"
    for graph in graph_module.graphs.values():
        for nid, node in graph.nodes.items():
            missing = [succ for succ in node.succs
                       if succ not in graph.nodes]
            if missing:
                return (f"successors: node {nid} of {graph.name!r} "
                        f"names missing node(s) {missing}")
    return None


def scan_cache_entries(cache) -> Tuple[int, int, List[str]]:
    """Scan every entry of *cache*: (well-formed, corrupt, details).

    An entry that fails to unpickle, or whose payload fails the
    self-contained checks or crashes them, counts as corrupt; details
    name the file and the failed check.
    """
    import pickle

    well_formed = 0
    corrupt = 0
    details: List[str] = []
    for kind, path in cache.entries():
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
            payload = entry["payload"]
        except Exception as exc:
            corrupt += 1
            details.append(f"{path.name}: unreadable "
                           f"({type(exc).__name__})")
            continue
        try:
            problem = _payload_problem(kind, payload)
        except Exception as exc:
            problem = f"verifier crash ({type(exc).__name__}: {exc})"
        if problem is None:
            well_formed += 1
        else:
            corrupt += 1
            details.append(f"{path.name}: {problem}")
    return well_formed, corrupt, details

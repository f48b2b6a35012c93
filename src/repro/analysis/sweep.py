"""Drive the static verifier across the benchmark suite (``repro verify``).

For every benchmark x optimization level, each engine's artifacts are
built and checked statically:

* **reference** — the :class:`ProgramGraph` structure itself;
* **codegen**   — the direct-threaded words against the graph, then the
  exec-compiled source's AST (:func:`verify_generated_module`).

The result renders as a Markdown table of checks passed per
(benchmark, level, tier) — any cell with violations fails the sweep, and
the violations are listed below the table by invariant name.

:func:`scan_cache_entries` is the self-contained sibling used by
``repro cache show --verify``: it walks a disk cache directory and
classifies every entry as well-formed or corrupt from the payload alone
(no source module needed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import VerifyResult, Violation

TIERS = ("reference", "codegen")

DEFAULT_LEVELS = (0, 1, 2)


@dataclass
class SweepCell:
    """One (benchmark, level, tier) verification outcome."""

    benchmark: str
    level: int
    tier: str
    checks: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SweepReport:
    """Every cell of one ``repro verify`` sweep."""

    cells: List[SweepCell] = field(default_factory=list)
    #: (benchmark, level) -> {"SAFE": n, "UNKNOWN": n, "UNSAFE": n} when the
    #: sweep ran with range analysis enabled.
    ranges: Dict[Tuple[str, int], Dict[str, int]] = field(
        default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def checks(self) -> int:
        return sum(cell.checks for cell in self.cells)

    @property
    def violations(self) -> List[Tuple[SweepCell, Violation]]:
        return [(cell, v) for cell in self.cells for v in cell.violations]


def _verify_tier(tier: str, graph_module) -> VerifyResult:
    from repro.analysis.verify_codegen import verify_generated_module
    from repro.analysis.verify_lowered import verify_graph
    from repro.sim.codegen import generate_module

    if tier == "reference":
        result = VerifyResult()
        for name in sorted(graph_module.graphs):
            result.merge(verify_graph(graph_module.graphs[name]))
        return result
    if tier == "codegen":
        return verify_generated_module(graph_module,
                                       generate_module(graph_module))
    raise ValueError(f"unknown tier {tier!r}")


def _range_cell(benchmark: str, level: int, graph_module) -> Tuple[
        SweepCell, Dict[str, int]]:
    """Run the interval analysis over one optimized module.

    Every classified access counts as one check; a definite ``UNSAFE``
    access is a static violation — the program is reported without ever
    being executed.
    """
    from repro.analysis import ranges as _ranges

    cell = SweepCell(benchmark, level, "ranges")
    try:
        mranges = _ranges.analyze_module(graph_module)
    except Exception as exc:  # a crash is itself a finding
        cell.checks += 1
        cell.violations.append(Violation(
            "verifier-crash", f"{type(exc).__name__}: {exc}", benchmark))
        return cell, {_ranges.SAFE: 0, _ranges.UNSAFE: 0,
                      _ranges.UNKNOWN: 0}
    counts = mranges.counts()
    cell.checks = sum(counts.values())
    for graph_name, proof in mranges.unsafe_accesses():
        iv = proof.index_interval
        span = "?" if iv is None else f"[{iv[0]}, {iv[1]}]"
        cell.violations.append(Violation(
            "bounds-unsafe",
            f"{proof.kind} {proof.array or '<array>'}{span} is out of "
            f"bounds for length {proof.length} at word "
            f"{proof.word_index}", graph_name))
    return cell, counts


def run_sweep(benchmarks: Optional[Sequence[str]] = None,
              levels: Sequence[int] = DEFAULT_LEVELS,
              tiers: Sequence[str] = TIERS,
              ranges: bool = False,
              progress=None) -> SweepReport:
    """Statically verify every (benchmark, level, tier) artifact."""
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
            for tier in tiers:
                if progress is not None:
                    progress(spec.name, level, tier)
                cell = SweepCell(spec.name, level, tier)
                try:
                    result = _verify_tier(tier, graph_module)
                except Exception as exc:  # a crash is itself a finding
                    cell.checks += 1
                    cell.violations.append(Violation(
                        "verifier-crash", f"{type(exc).__name__}: {exc}",
                        spec.name))
                else:
                    cell.checks = result.checks
                    cell.violations = result.violations
                report.cells.append(cell)
            if ranges:
                if progress is not None:
                    progress(spec.name, level, "ranges")
                cell, counts = _range_cell(spec.name, level, graph_module)
                report.cells.append(cell)
                report.ranges[(spec.name, level)] = counts
    return report


def render_markdown(report: SweepReport,
                    tiers: Sequence[str] = TIERS) -> str:
    """The ``repro verify`` summary: one row per (benchmark, level)."""
    lines = ["# Static artifact verification", ""]
    header = "| benchmark | level | " + " | ".join(tiers) + " |"
    rule = "|---|---|" + "|".join("---" for _ in tiers) + "|"
    lines += [header, rule]
    by_row: Dict[Tuple[str, int], Dict[str, SweepCell]] = {}
    order: List[Tuple[str, int]] = []
    for cell in report.cells:
        key = (cell.benchmark, cell.level)
        if key not in by_row:
            by_row[key] = {}
            order.append(key)
        by_row[key][cell.tier] = cell
    for benchmark, level in order:
        row = [benchmark, str(level)]
        for tier in tiers:
            cell = by_row[(benchmark, level)].get(tier)
            if cell is None:
                row.append("—")
            elif cell.ok:
                row.append(f"{cell.checks} ✓")
            else:
                row.append(f"FAIL({len(cell.violations)})")
        lines.append("| " + " | ".join(row) + " |")
    if report.ranges:
        lines += ["", "## Range analysis", "",
                  "| benchmark | level | SAFE | UNKNOWN | UNSAFE |",
                  "|---|---|---|---|---|"]
        for (benchmark, level), counts in report.ranges.items():
            unsafe = counts.get("UNSAFE", 0)
            lines.append(
                f"| {benchmark} | {level} | {counts.get('SAFE', 0)} | "
                f"{counts.get('UNKNOWN', 0)} | "
                + (f"**{unsafe}**" if unsafe else "0") + " |")
    lines.append("")
    total = len(report.cells)
    failed = sum(1 for cell in report.cells if not cell.ok)
    lines.append(f"{report.checks} checks over {total} cells; "
                 f"{failed} cell(s) failed.")
    if failed:
        lines.append("")
        lines.append("## Violations")
        lines.append("")
        for cell, violation in report.violations:
            lines.append(f"- `{cell.benchmark}` L{cell.level} "
                         f"{cell.tier}: {violation}")
    return "\n".join(lines) + "\n"


def report_json(report: SweepReport,
                lint: Optional[VerifyResult] = None) -> Dict:
    """Machine-readable form of one sweep (``repro verify --json``)."""
    doc: Dict = {
        "ok": report.ok and (lint is None or lint.ok),
        "checks": report.checks,
        "cells": [
            {"benchmark": cell.benchmark, "level": cell.level,
             "tier": cell.tier, "checks": cell.checks, "ok": cell.ok}
            for cell in report.cells],
        "violations": [
            {"benchmark": cell.benchmark, "level": cell.level,
             "tier": cell.tier, "invariant": violation.invariant,
             "graph": violation.graph, "detail": violation.detail}
            for cell, violation in report.violations],
    }
    if report.ranges:
        doc["ranges"] = [
            {"benchmark": benchmark, "level": level, **counts}
            for (benchmark, level), counts in report.ranges.items()]
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


def _scan_payload(kind: str, payload) -> VerifyResult:
    """Self-contained well-formedness checks on one cache payload —
    no source module available, so cross-tier checks are skipped."""
    from repro.analysis.cfg import verify_words

    result = VerifyResult()
    if kind != "codegen":
        return result
    graphs = payload.get("graphs") if isinstance(payload, dict) else None
    if not result.check(isinstance(graphs, dict), "payload-shape",
                        "codegen payload has no graphs table"):
        return result
    for name in sorted(graphs):
        result.merge(verify_words(graphs[name]))
    sources = payload.get("sources")
    if result.check(isinstance(sources, tuple)
                    and all(isinstance(text, str) for text in sources),
                    "payload-shape", "codegen payload has no source texts"):
        try:
            for text in sources:
                ast.parse(text)
            result.check(True, "source-syntax", "")
        except SyntaxError as exc:
            result.check(False, "source-syntax",
                         f"stored source does not parse: {exc}")
    blob = payload.get("code")
    if blob is not None:
        import hashlib
        sha = hashlib.sha256(blob).hexdigest()
        result.check(sha == payload.get("code_sha"), "code-sha",
                     "marshalled code blob does not match its "
                     "recorded digest")
    return result


def scan_cache_entries(cache) -> Tuple[int, int, List[str]]:
    """Scan every entry of *cache*: (well-formed, corrupt, details).

    An entry that fails to unpickle or whose payload violates the
    self-contained invariants counts as corrupt; details name the file
    and the violated invariant.
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
            result = _scan_payload(kind, payload)
        except Exception as exc:
            corrupt += 1
            details.append(f"{path.name}: verifier crash "
                           f"({type(exc).__name__}: {exc})")
            continue
        if result.ok:
            well_formed += 1
        else:
            corrupt += 1
            first = result.violations[0]
            details.append(f"{path.name}: {first}")
    return well_formed, corrupt, details

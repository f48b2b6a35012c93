"""Regenerate ``frontier.json``: the frontier sweep's golden pin.

For every suite benchmark at level 1 and seed 0, the snapshot builds the
candidate pool the frontier study sweeps (the default
:class:`~repro.feedback.study.FrontierStudyConfig` lengths, unroll
factor, ``max_candidates`` and ``measure_top``) and records the
unbounded :func:`~repro.asip.explore.frontier_sweep`: the pool's chain
labels in pool order, then one ``[budget, candidate pool indices,
finalist combos]`` row per segment, so the breakpoints, each segment's
ranked candidate patterns and its finalist subsets are all pinned.  It
also records the rendered suite-wide chain table of the frontier study
``FrontierStudyConfig(max_budget=2600)``.

``tests/test_golden_frontier.py`` diffs fresh sweeps and a fresh table
against the committed file, so any change to which budgets answer
differently, or to what they answer, fails the suite until this script
is re-run and its diff is read.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_frontier.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.asip.cost import DEFAULT_COST_MODEL
from repro.asip.explore import candidate_pool, frontier_sweep
from repro.chaining.detect import detect_sequences
from repro.feedback.study import FrontierStudyConfig, run_frontier_study
from repro.opt.pipeline import OptLevel, optimize_module
from repro.reporting.frontier import suite_chains_section
from repro.sim.machine import run_module
from repro.suite.registry import all_benchmarks
from repro.suite.runner import compile_benchmark

GOLDEN_PATH = Path(__file__).with_name("frontier.json")
LEVEL = OptLevel.PIPELINED
SEED = 0
#: The frontier study whose suite chain table is pinned.
SUITE_CONFIG = FrontierStudyConfig(max_budget=2600, jobs=1)


def sweep_snapshot(spec) -> dict:
    """``{"pool": labels, "segments": rows}`` for one benchmark."""
    config = FrontierStudyConfig()
    graph_module, _ = optimize_module(compile_benchmark(spec), LEVEL,
                                      unroll_factor=config.unroll_factor)
    profile = run_module(graph_module, spec.generate_inputs(SEED)).profile
    detection = detect_sequences(graph_module, profile, config.lengths)
    pool = candidate_pool(detection, DEFAULT_COST_MODEL)
    frontier = frontier_sweep(pool, max_candidates=config.max_candidates,
                              measure_top=config.measure_top)
    return {
        "pool": [candidate.label for candidate in pool],
        "segments": [[segment.budget, list(segment.candidate_indices),
                      [list(combo) for combo in segment.combos]]
                     for segment in frontier.segments],
    }


def sweeps() -> dict:
    """Every suite benchmark's pinned sweep, by name."""
    return {spec.name: sweep_snapshot(spec) for spec in all_benchmarks()}


def suite_chain_table(study) -> str:
    """The rendered suite-wide chain table of a frontier study."""
    return suite_chains_section(study)


def snapshot() -> dict:
    return {
        "sweeps": sweeps(),
        "suite_chains": suite_chain_table(run_frontier_study(SUITE_CONFIG)),
    }


def dump(data: dict) -> str:
    """JSON text with one line per segment, so a diff reads per budget."""
    lines = ["{", ' "sweeps": {']
    names = sorted(data["sweeps"])
    for n, name in enumerate(names):
        sweep = data["sweeps"][name]
        lines.append(f"  {json.dumps(name)}: {{")
        lines.append(f'   "pool": {json.dumps(sweep["pool"])},')
        lines.append('   "segments": [')
        rows = sweep["segments"]
        for r, row in enumerate(rows):
            comma = "," if r + 1 < len(rows) else ""
            lines.append(f"    {json.dumps(row)}{comma}")
        lines.append("   ]")
        lines.append("  }" + ("," if n + 1 < len(names) else ""))
    lines.append(" },")
    lines.append(f' "suite_chains": {json.dumps(data["suite_chains"])}')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    assert json.loads(text) == data
    return text


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(snapshot()))
    print(f"wrote {GOLDEN_PATH}")

"""Plain-data summaries of study results.

``study_summary`` flattens a :class:`~repro.feedback.study.StudyResult`
into JSON-serializable dictionaries — what EXPERIMENTS.md records and what
downstream tooling (plotting, regression tracking) consumes.
``exploration_payload`` and ``frontier_payload`` do the same for the
exploration and frontier studies.  Each is the document both the CLI's
``--json`` export and the serve daemon's answer carry.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.feedback.study import StudyResult
from repro.chaining.sequence import sequence_label
from repro.opt.pipeline import OptLevel


def study_summary(study: StudyResult, top_n: int = 10) -> Dict:
    """Flatten *study* into plain dicts (JSON-ready)."""
    summary: Dict = {
        "config": {
            "levels": list(study.config.levels),
            "lengths": list(study.config.lengths),
            "seed": study.config.seed,
            "unroll_factor": study.config.unroll_factor,
        },
        "benchmarks": {},
        "combined": {},
    }
    for name, bench in study.benchmarks.items():
        entry: Dict = {"levels": {}}
        for level, run in bench.runs.items():
            detection = run.detection
            entry["levels"][int(level)] = {
                "cycles": run.cycles,
                "total_ops": detection.total_ops,
                "nodes": run.graph_module.total_nodes(),
                "top_sequences": {
                    str(length): [
                        {"name": sequence_label(seq_name),
                         "frequency": round(freq, 4)}
                        for seq_name, freq in detection.top(length, top_n)
                    ]
                    for length in study.config.lengths
                },
            }
        summary["benchmarks"][name] = entry
    for level in study.config.levels:
        combined = study.combined(level)
        summary["combined"][int(level)] = {
            str(length): [
                {"name": sequence_label(seq_name),
                 "frequency": round(freq, 4)}
                for seq_name, freq in combined.top(length, top_n)
            ]
            for length in study.config.lengths
        }
    return summary


def summary_to_json(study: StudyResult, top_n: int = 10, **kwargs) -> str:
    """JSON text of :func:`study_summary` (stable key order)."""
    kwargs.setdefault("indent", 2)
    kwargs.setdefault("sort_keys", True)
    return json.dumps(study_summary(study, top_n), **kwargs)


def exploration_payload(study) -> dict:
    """``explore-study`` payload (= ``repro explore-study --json``)."""
    config = study.config
    return {
        "config": {
            "budgets": list(config.budgets), "level": config.level,
            "seed": config.seed,
            "seeds": list(config.seeds) if config.seeds else None,
            "engine": config.engine},
        "cells": study.summary_rows(),
    }


def frontier_payload(study) -> dict:
    """``frontier`` payload (= ``repro explore-study --frontier
    --json``)."""
    config = study.config
    suite = [{
        "chain": chain.label,
        "frontier_count": chain.frontier_count,
        "benchmarks": list(chain.benchmarks),
        "combined_frequency": chain.combined_frequency,
        "reason": chain.reason(len(study.benchmarks)),
    } for chain in study.suite_chains()]
    return {
        "config": {
            "level": config.level, "seed": config.seed,
            "seeds": list(config.seeds) if config.seeds else None,
            "max_budget": config.max_budget,
            "engine": config.engine},
        "frontiers": {
            name: {"breakpoints": bench.breakpoints()}
            for name, bench in study.benchmarks.items()},
        "cells": study.summary_rows(),
        "suite_chains": suite,
    }

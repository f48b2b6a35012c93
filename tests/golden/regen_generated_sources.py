"""Regenerate ``generated_sources.json``: the code generator's golden pin.

For every suite benchmark at optimization levels 0, 1 and 2, the snapshot
lowers two modules -- the optimized one and its re-sequentialized
single-issue form (:func:`~repro.asip.resequence.resequence_module`, the
base every ASIP design is measured on) -- and records the sha256 of the
Python source :func:`~repro.sim.codegen.emit_sources` emits for each, one
graph source after another.  ``tests/test_golden_generated_sources.py``
diffs a fresh snapshot against the committed file, so a change to the
lowered words that is meant to be internal (a different word layout, a
different way of naming jump targets) must leave the generated programs
byte-identical, and any change to what the engine runs fails the suite
until this script is re-run and its diff is read.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_generated_sources.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.asip.resequence import resequence_module
from repro.cfg.graph import GraphModule
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.codegen import emit_sources
from repro.sim.engine import lower_module
from repro.suite.registry import all_benchmarks
from repro.suite.runner import compile_benchmark

GOLDEN_PATH = Path(__file__).with_name("generated_sources.json")
LEVELS = (OptLevel.NONE, OptLevel.PIPELINED, OptLevel.RENAMED)


def source_sha(module: GraphModule) -> str:
    """sha256 of every graph's generated source, in graph order."""
    sources, _consts = emit_sources(lower_module(module))
    return hashlib.sha256("\n".join(sources).encode()).hexdigest()


def snapshot() -> dict:
    """``{benchmark: {level: {"optimized", "resequenced"}}}``."""
    result: dict = {}
    for spec in all_benchmarks():
        module = compile_benchmark(spec)
        per_level: dict = {}
        for level in LEVELS:
            gm, _report = optimize_module(module, level)
            per_level[str(int(level))] = {
                "optimized": source_sha(gm),
                "resequenced": source_sha(resequence_module(gm)),
            }
        result[spec.name] = per_level
    return result


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(snapshot()))
    print(f"wrote {GOLDEN_PATH}")

"""Regenerate ``run_outputs.json``: the simulator's golden pin.

For every suite benchmark at optimization levels 0, 1 and 2, the snapshot
runs seed 0's inputs on the ``reference`` engine (the tree-walking
interpreter, the semantic oracle) and records the cycle count, the
return value, the sha256 of the global arrays after the run and the
sha256 of the profile.  ``tests/test_golden_runs.py`` diffs a fresh
snapshot against the committed file, and checks that the default engine
reproduces it, so any change to what a program computes or how often
each node and edge runs fails the suite until this script is re-run and
its diff is read.

Both digests hash a canonical JSON text: globals as ``{name: values}``
with sorted keys; the profile as per-function node counts, edge counts
(``"src->dst"`` keys) and call counts, all key-sorted.  Floats are
written by ``json`` (``repr``, round-trip exact).

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_run_outputs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import MachineResult, run_module
from repro.sim.profile import ProfileData
from repro.suite.registry import all_benchmarks
from repro.suite.runner import compile_benchmark

GOLDEN_PATH = Path(__file__).with_name("run_outputs.json")
LEVELS = (OptLevel.NONE, OptLevel.PIPELINED, OptLevel.RENAMED)
SEED = 0


def _sha(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def profile_dump(profile: ProfileData) -> dict:
    """Canonical JSON-able form of *profile* (see the module docstring)."""
    functions = (set(profile.node_counts) | set(profile.edge_counts)
                 | set(profile.call_counts))
    return {
        fn: {
            "nodes": {str(nid): count for nid, count in
                      sorted(profile.node_counts.get(fn, {}).items())},
            "edges": {f"{src}->{dst}": count for (src, dst), count in
                      sorted(profile.edge_counts.get(fn, {}).items())},
            "calls": profile.call_counts.get(fn, 0),
        }
        for fn in sorted(functions)
    }


def run_record(result: MachineResult) -> dict:
    """The pinned fields of one run."""
    return {
        "cycles": result.cycles,
        "return_value": result.return_value,
        "globals_sha256": _sha(result.globals_after),
        "profile_sha256": _sha(profile_dump(result.profile)),
    }


def snapshot(engine: str = "reference") -> dict:
    """``{benchmark: {level: run_record}}`` for seed 0 on *engine*."""
    result: dict = {}
    for spec in all_benchmarks():
        module = compile_benchmark(spec)
        inputs = spec.generate_inputs(SEED)
        result[spec.name] = {
            str(int(level)): run_record(run_module(
                optimize_module(module, level)[0], inputs, engine=engine))
            for level in LEVELS
        }
    return result


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(snapshot()))
    print(f"wrote {GOLDEN_PATH}")

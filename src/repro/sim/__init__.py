"""Simulator / profiler for program graphs.

This is paper Figure 2, step 2: execute the three-address code on the sample
input data and collect profile information.  The interpreter executes
*program graphs* directly under their VLIW node semantics, so the same engine
profiles the sequential level-0 graph and the percolation-scheduled /
pipelined graphs — and doubles as the semantic-preservation oracle (an
optimized graph must produce bit-identical outputs).
"""

from repro.sim.machine import (DEFAULT_ENGINE, ENGINES, GraphInterpreter,
                               MachineResult, run_module, run_module_batch)
from repro.sim.codegen import CodegenEngine, GeneratedModule, generate_module
from repro.sim.profile import ProfileData
from repro.sim.memory import ArrayStorage

__all__ = [
    "GraphInterpreter",
    "CodegenEngine",
    "GeneratedModule",
    "generate_module",
    "MachineResult",
    "run_module",
    "run_module_batch",
    "DEFAULT_ENGINE",
    "ENGINES",
    "ProfileData",
    "ArrayStorage",
]

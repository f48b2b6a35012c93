"""repro — compiler feedback in ASIP design.

A full reproduction of Onion, Nicolau & Dutt, *Incorporating Compiler
Feedback Into the Design of ASIPs* (DATE 1995): a mini-C front end, a
three-address program-graph IR, a profiling simulator, a percolation-
scheduling optimizer with loop pipelining and register renaming, the
chainable-sequence detection and coverage analyses, the Table-1 DSP
benchmark suite, and an ASIP synthesis model that closes the design loop.

Typical use::

    from repro import compile_source, optimize_module, OptLevel
    from repro import run_module, detect_sequences

    module = compile_source(open("kernel.c").read(), "kernel")
    graphs, _ = optimize_module(module, OptLevel.PIPELINED)
    result = run_module(graphs, {"x": samples})
    found = detect_sequences(graphs, result.profile, lengths=(2, 3))
    for name, freq in found.top(2, limit=5):
        print(name, freq)

Higher-level drivers live in :mod:`repro.feedback` (the whole experiment
matrix) and :mod:`repro.asip` (design-space exploration).
"""

import importlib

from repro.errors import ReproError

__version__ = "1.0.0"

#: Public name -> defining module.  Resolved on first access (PEP 562), so
#: ``import repro.cli`` loads only what the command it runs needs.
_EXPORTS = {
    "compile_source": "repro.frontend",
    "optimize_module": "repro.opt.pipeline",
    "OptLevel": "repro.opt.pipeline",
    "run_module": "repro.sim.machine",
    "detect_sequences": "repro.chaining.detect",
    "analyze_coverage": "repro.chaining.coverage",
}

__all__ = ["ReproError", *_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value

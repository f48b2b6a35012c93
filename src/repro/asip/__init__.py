"""ASIP synthesis model — closing the paper's Figure-1 loop.

The analysis side of the paper hands the designer a ranked list of chainable
sequences.  This package models the design side: a single-issue base
processor (TMS320-class, the paper's motivating example) extended with
*chained instructions* synthesized from chosen sequences.

* :mod:`repro.asip.isa` — the instruction-set model and chained extensions;
* :mod:`repro.asip.cost` — functional-unit area/delay tables and the chain
  cost model;
* :mod:`repro.asip.select` — chain-aware instruction selection: rewrite a
  sequential program graph, fusing matched sequences into single-cycle
  chained instructions;
* :mod:`repro.asip.evaluate` — execute base and chained binaries on the
  simulator and report real measured speedup;
* :mod:`repro.asip.explore` — budgeted design-space exploration: pick the
  chain set maximizing speedup under an area budget.
"""

"""Simulator / profiler for program graphs.

This is paper Figure 2, step 2: execute the three-address code on the sample
input data and collect profile information.  The interpreter executes
*program graphs* directly under their VLIW node semantics, so the same engine
profiles the sequential level-0 graph and the percolation-scheduled /
pipelined graphs — and doubles as the semantic-preservation oracle (an
optimized graph must produce bit-identical outputs).
"""

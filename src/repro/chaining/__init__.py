"""Chainable-sequence analysis — the paper's core contribution (step 4).

Given an optimized program graph and its execution profile, the detector
finds every *chainable operation sequence*: a path of data-flow-connected
operations in consecutive machine cycles ("data is passed directly from one
operation to the next"), each weighted by the dynamic frequency — the share
of execution time it accounts for.  The coverage analyzer (paper §7) then
greedily picks non-overlapping high-frequency sequences, measuring how much
of the workload a small set of chained instructions would cover.
"""

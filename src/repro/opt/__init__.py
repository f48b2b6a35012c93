"""The optimizing compiler (paper Figure 2, step 3).

Stand-in for the UCI VLIW compiler: percolation scheduling
(:mod:`repro.opt.percolation`), loop pipelining by unroll-and-compact
(:mod:`repro.opt.looppipe`), register renaming (integrated into percolation),
plus the classic enabling cleanups (constant folding, copy propagation and
coalescing, dead-code elimination, loop-invariant code motion).

The paper's three optimization levels map to
:class:`~repro.opt.pipeline.OptLevel`:

* ``OptLevel.NONE`` (0) — the sequential program graph untouched;
* ``OptLevel.PIPELINED`` (1) — cleanups, loop pipelining, percolation
  scheduling, **without** register renaming;
* ``OptLevel.RENAMED`` (2) — level 1 plus register renaming.
"""

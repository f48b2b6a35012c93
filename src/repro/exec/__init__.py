"""Study execution subsystem: the pool, the scheduler and the executors.

The experimental matrix (every benchmark × optimization level, multiple
input seeds) and the design-space explorations are CPU-bound simulation,
so scaling them means process parallelism plus batching:

* :mod:`repro.exec.pool` — ``jobs=`` knob resolution (``None`` defers to
  ``$REPRO_JOBS``, ``0`` means all cores) and the persistent worker pool;
* :mod:`repro.exec.scheduler` — runs independent tasks serially or on
  that pool, results keyed by task;
* :mod:`repro.exec.study` and :mod:`repro.exec.explore` — the study,
  exploration and frontier executors, each one task per benchmark for
  every ``jobs`` value.

Everything here preserves the serial-equivalence guarantee: ``jobs=N``
produces results bit-identical to ``jobs=1`` — profiles included —
because every worker count runs the same per-benchmark task and the
parent reassembles results in canonical order, never completion order.
"""

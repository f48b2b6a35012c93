"""Task execution over the persistent process pool.

Every executor (the study matrix, the exploration and frontier studies)
runs one independent task per benchmark, so the scheduler is small:

* a :class:`Task` names a module-level function and its arguments;
* :func:`run_tasks` executes a task list either serially (``jobs=1`` —
  declaration order, no pool, no pickling) or on the persistent worker
  pool (:func:`repro.exec.pool.get_pool` — spawned once, reused across
  studies), submitting tasks in declaration order with at most ``jobs``
  in flight.

Results are returned keyed by task, so callers reassemble outputs in
their own canonical order — completion order never leaks into results,
which is what keeps ``jobs=N`` bit-identical to ``jobs=1``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.exec.pool import discard_broken_pool, get_pool, resolve_jobs


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``fn(*args)`` runs in a worker process when ``jobs > 1``, so ``fn``
    must be a module-level callable and ``args`` picklable.
    """

    key: Hashable
    fn: Callable
    args: Tuple = ()


@dataclass
class ScheduleStats:
    """Execution accounting for one :func:`run_tasks` call."""

    executed: int = 0
    max_in_flight: int = 0
    order: list = field(default_factory=list)  # submission order of keys


def run_tasks(tasks: Sequence[Task], jobs: Optional[int] = None,
              on_start: Optional[Callable[[Hashable], None]] = None,
              stats: Optional[ScheduleStats] = None
              ) -> Dict[Hashable, object]:
    """Execute *tasks*; return results by key.

    ``on_start(key)`` fires in the parent when a task is picked for
    execution (serial) or submitted to the pool (parallel).  A task
    exception propagates to the caller; outstanding parallel work is
    cancelled or drained first.  Duplicate keys raise
    :class:`~repro.errors.ReproError` before any task runs.
    """
    seen = set()
    for task in tasks:
        if task.key in seen:
            raise ReproError(f"duplicate task key {task.key!r}")
        seen.add(task.key)
    jobs = resolve_jobs(jobs)
    if stats is None:
        stats = ScheduleStats()
    results: Dict[Hashable, object] = {}

    def start(task: Task) -> None:
        if on_start is not None:
            on_start(task.key)
        stats.order.append(task.key)
        stats.executed += 1

    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            start(task)
            stats.max_in_flight = max(stats.max_in_flight, 1)
            results[task.key] = task.fn(*task.args)
        return results

    # Imported here: a serial run never loads concurrent.futures.
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    waiting = deque(tasks)
    in_flight: Dict = {}  # future -> key
    # The persistent pool outlives this call: repeated studies reuse the
    # same warm workers instead of paying spin-up per run_tasks call.
    # The in-flight cap below bounds parallelism to *jobs* regardless of
    # the pool's size.
    pool = get_pool(jobs)
    try:
        while waiting or in_flight:
            while waiting and len(in_flight) < jobs:
                task = waiting.popleft()
                start(task)
                in_flight[pool.submit(task.fn, *task.args)] = task.key
            stats.max_in_flight = max(stats.max_in_flight,
                                      len(in_flight))
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                key = in_flight.pop(future)
                results[key] = future.result()  # re-raises task errors
    except BrokenProcessPool:
        for future in in_flight:
            future.cancel()
        discard_broken_pool()
        raise
    except BaseException:
        for future in in_flight:
            future.cancel()
        # Drain still-running siblings before re-raising: the pool
        # outlives this call, and a caller that catches the error must
        # find quiet workers, not orphan tasks still mutating state
        # (the old per-call executor's `with` exit waited the same way).
        wait(in_flight)
        raise
    return results

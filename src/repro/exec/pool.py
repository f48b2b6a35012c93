"""Worker-pool plumbing shared by every parallel entry point.

Two things live here:

* **jobs resolution** — every ``jobs=`` knob in the toolchain accepts
  ``None`` (defer to the ``REPRO_JOBS`` environment variable, default 1),
  ``0`` (one worker per available core) or a positive worker count.
  Parallelism is strictly opt-in: with no knob and no environment
  variable, every task runs in the calling process.
* **the persistent pool** — worker processes are created lazily on the
  first parallel schedule and *reused* across subsequent ones
  (:func:`get_pool`), so repeated studies stop paying process-pool
  spin-up per call.  The pool is resized only when a different worker
  count is requested, shut down at interpreter exit, and discarded
  automatically if a worker dies so the next schedule starts from a
  healthy pool.

Tasks reach the pool only through :mod:`repro.exec.scheduler`, one task
per benchmark.  Worker processes receive their payloads by pickling, so
task functions must be module-level and their arguments picklable;
engine caches are stripped at the pickle boundary (see
``GraphModule.__getstate__``) and rebuilt lazily in each worker.

**The fork rule.**  Workers are forked from the process that first asks
for the pool, so they inherit every module it has imported by then; a
module first imported after that is imported once per worker.  An
executor whose every task needs a module imports it before its tasks
start (the study matrix imports the front end in
:func:`repro.exec.study.execute_study`).  One whose tasks need it only
sometimes leaves it to the workers: the exploration executors do not
compile on a warm cache.  ``concurrent.futures`` itself is imported
only when a pool is built, so a ``jobs=1`` run never loads it.
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ReproError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Environment variable consulted when a ``jobs=`` knob is ``None``.
JOBS_ENV_VAR = "REPRO_JOBS"


def available_cpus() -> int:
    """CPUs this process may actually run on (its scheduler CPU mask)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs=`` knob to a concrete worker count (>= 1).

    ``None`` defers to ``$REPRO_JOBS`` (absent -> 1, no pool);
    ``0`` — on the knob or in the variable — means every available core.
    Errors name the environment variable when the value came from it, so
    a CI misconfiguration is diagnosable from the message alone.
    """
    source = None
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR)
        if raw is None or not raw.strip():
            return 1
        source = f" (from {JOBS_ENV_VAR}={raw.strip()!r})"
        try:
            jobs = int(raw)
        except ValueError:
            raise ReproError(
                f"invalid {JOBS_ENV_VAR}={raw!r} (expected an integer)")
    if jobs < 0:
        raise ReproError(
            f"jobs must be >= 0, got {jobs}{source or ''}")
    if jobs == 0:
        return available_cpus()
    return jobs


# -- the persistent pool -----------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared worker pool, created lazily and reused across calls.

    Repeated parallel schedules with the same worker count — the common
    case: every ``run_study(jobs=N)`` of a session — reuse the warm
    workers instead of respawning them.  A
    different count tears the pool down and builds a fresh one.
    """
    global _pool, _pool_workers
    if _pool is None or _pool_workers != workers:
        from concurrent.futures import ProcessPoolExecutor
        if _pool is not None:
            # Forget the old pool *before* constructing the replacement:
            # if ProcessPoolExecutor raises (bad worker count, resource
            # exhaustion), a stale (_pool, _pool_workers) pair would hand
            # the already-shut-down executor back to the next caller that
            # asks for the old count.
            _pool.shutdown()
            _pool = None
            _pool_workers = 0
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (idempotent; re-created on demand)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=wait)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


def discard_broken_pool() -> None:
    """Forget a pool whose workers died so the next call starts fresh.

    ``shutdown()`` on a broken executor only marks it; dropping the
    reference lets :func:`get_pool` build a healthy replacement.
    """
    shutdown_pool(wait=False)


def pool_status() -> Dict[str, object]:
    """The persistent pool's current shape (serve status, diagnostics)."""
    return {"alive": _pool is not None, "workers": _pool_workers}

"""The repro service daemon.

An asyncio front end over the toolchain: requests arrive as JSON lines
(:mod:`repro.serve.protocol`), are validated on the event loop, and are
evaluated on **one** dedicated executor thread — evaluations are
CPU-bound and the toolchain's process-global state (the persistent
worker pool, the disk-cache handle) is built for one driver at a time.  Parallelism across
cores comes from each study-family evaluation's own ``jobs`` knob
fanning out onto the process pool, not from overlapping evaluations; the loop itself
stays free to answer ``status``, coalesce duplicates and take new
connections while an evaluation runs.

Two layers keep repeated questions cheap:

* **in-flight deduplication** — concurrent requests with the same
  canonical digest coalesce onto the first one's evaluation.  The
  shared future resolves to the final *response bytes*, so every
  coalesced client receives the bit-identical line, and the evaluation
  runs exactly once (``dedup_coalesced`` counts the riders).
* **the whole-result cache tier** — study-family ops go through
  :mod:`repro.feedback.study`'s result tier (the daemon process enables
  it via ``REPRO_RESULT_CACHE``; the CLI sets that up), so a repeat of
  an answered config — same daemon, a restarted one, or a warm CLI run
  — is served from disk with zero simulator invocations.  ``analyze``
  and ``explore`` responses are cached at the serve layer under the
  request digest salted with the toolchain source token.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ReproError
from repro.exec.pool import pool_status, shutdown_pool
from repro.exec.scheduler import ScheduleStats
from repro.feedback import study as study_api
from repro.serve import protocol
from repro.sim import diskcache


#: Longest request line the daemon reads, newline excluded.  A longer
#: line is skipped and answered with an error; the connection stays usable.
MAX_REQUEST_LINE = 64 * 1024


def _encode(obj: dict) -> bytes:
    """One response line (no newline).  ``sort_keys`` makes the
    encoding a pure function of the payload, which is what lets dedup
    hand every coalesced client bit-identical bytes."""
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _simple_result_key(digest: str) -> str:
    """Serve-layer result key for analyze/explore: the request digest
    salted with the toolchain source token, so editing any
    ``src/repro`` module invalidates served answers exactly like
    study-family results."""
    blob = f"{digest}|{diskcache.result_source_token()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ServeStats:
    """The daemon's cumulative request accounting."""

    requests: int = 0           # lines answered (status/shutdown too)
    errors: int = 0             # requests answered with ok=false
    dispatches: int = 0         # evaluations entered (post-dedup)
    dedup_coalesced: int = 0    # requests riding another's evaluation
    result_hits: int = 0        # dispatches answered by the result tier
    result_misses: int = 0      # dispatches that actually evaluated
    evaluation_seconds: float = 0.0
    tasks_executed: int = 0     # scheduler tasks across all evaluations
    max_tasks_in_flight: int = 0

    @property
    def evaluations(self) -> int:
        """Dispatches that ran the toolchain (result hits excluded)."""
        return self.dispatches - self.result_hits

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "dispatches": self.dispatches,
            "dedup_coalesced": self.dedup_coalesced,
            "evaluations": self.evaluations,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "evaluation_seconds": self.evaluation_seconds,
            "tasks_executed": self.tasks_executed,
            "max_tasks_in_flight": self.max_tasks_in_flight,
        }


class ReproServer:
    """``repro serve``: the socket daemon (one instance per process).

    Listens on a Unix socket (*socket_path*) or a local TCP port
    (*host*/*port*; port 0 picks a free one, recorded in
    :attr:`bound_port` once listening).  *jobs* is the default worker
    count for requests that leave ``jobs`` null.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 jobs: Optional[int] = None):
        if socket_path is None and port is None:
            raise ReproError(
                "repro serve needs a socket path or a TCP port")
        self.socket_path = str(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.bound_port: Optional[int] = None
        self.default_jobs = jobs
        self.stats = ServeStats()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._handlers: set = set()
        self._writers: set = set()
        self._active = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-eval")
        self._t0 = time.monotonic()

    # -- lifecycle ---------------------------------------------------------------

    def run(self) -> None:
        """Serve until a ``shutdown`` request drains the connections."""
        asyncio.run(self._serve())

    def run_in_thread(self, timeout: float = 30.0) -> threading.Thread:
        """Start :meth:`run` on a daemon thread; returns once
        listening (tests and embedding)."""
        thread = threading.Thread(target=self.run, name="repro-serve",
                                  daemon=True)
        thread.start()
        if not self._started.wait(timeout):
            raise ReproError("repro serve failed to start listening")
        return thread

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if self.socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path,
                limit=MAX_REQUEST_LINE)
        else:
            server = await asyncio.start_server(
                self._handle_client, self.host, self.port or 0,
                limit=MAX_REQUEST_LINE)
        for sock in server.sockets:
            name = sock.getsockname()
            if isinstance(name, tuple) and len(name) >= 2:
                self.bound_port = name[1]
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
            # Close lingering connections and let their handlers run to
            # completion: an abrupt loop teardown would cancel them mid-
            # await and log spurious tracebacks.
            for writer in list(self._writers):
                writer.close()
            if self._handlers:
                await asyncio.wait(set(self._handlers), timeout=5.0)
        finally:
            self._executor.shutdown(wait=True)
            shutdown_pool()
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
            self._started.clear()

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the last line may lack "\n"
                except asyncio.LimitOverrunError:
                    await _skip_line(reader)
                    line = None  # answered with an error by _respond
                if line is not None and not line:
                    break
                if line is not None and not line.strip():
                    continue
                # _active spans handling *and* the write-back, so a
                # drain-then-stop shutdown never cuts off a response.
                self._active += 1
                try:
                    blob = await self._respond(line)
                    writer.write(blob + b"\n")
                    await writer.drain()
                finally:
                    self._active -= 1
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _drain_then_stop(self) -> None:
        while self._active:
            await asyncio.sleep(0.02)
        self._stop.set()

    # -- request handling --------------------------------------------------------

    async def _respond(self, line: Optional[bytes]) -> bytes:
        """Answer one request line; ``None`` stands for an over-limit
        line that was skipped unread."""
        self.stats.requests += 1
        try:
            if line is None:
                raise ReproError(
                    f"request line exceeds {MAX_REQUEST_LINE} bytes")
            request = protocol.parse_request(line)
        except ReproError as exc:
            self.stats.errors += 1
            return _encode({"ok": False, "error": str(exc)})
        op = request["op"]
        if op == "status":
            return _encode({"ok": True, "op": "status",
                            "result": self.status_payload()})
        if op == "shutdown":
            asyncio.ensure_future(self._drain_then_stop())
            return _encode({"ok": True, "op": "shutdown",
                            "result": {"stopping": True}})
        digest = protocol.request_digest(request)
        inflight = self._inflight.get(digest)
        if inflight is not None:
            self.stats.dedup_coalesced += 1
            # Shielded: a rider's cancellation must not cancel the
            # future the owner and the other riders share.
            return await asyncio.shield(inflight)
        future = self._loop.create_future()
        self._inflight[digest] = future
        blob = None
        try:
            blob = await self._evaluate_request(request, digest)
        except ReproError as exc:
            self.stats.errors += 1
            blob = _encode({"ok": False, "op": op, "digest": digest,
                            "error": str(exc)})
        except Exception as exc:  # keep the daemon up on surprises
            self.stats.errors += 1
            blob = _encode({"ok": False, "op": op, "digest": digest,
                            "error": f"internal error: {exc}"})
        finally:
            # Resolve on every exit path, cancellation at shutdown
            # included, so coalesced riders never wait forever.
            self._inflight.pop(digest, None)
            if blob is None:
                self.stats.errors += 1
                future.set_result(_encode({
                    "ok": False, "op": op, "digest": digest,
                    "error": "evaluation cancelled"}))
            else:
                future.set_result(blob)
        return blob

    async def _evaluate_request(self, request: dict,
                                digest: str) -> bytes:
        """Validate, key, dispatch to the evaluation thread."""
        op = request["op"]
        default_jobs = self.default_jobs
        if op in ("study", "explore-study", "frontier"):
            config = protocol.build_config(request,
                                           default_jobs=default_jobs)

            def evaluate():
                state, before = _tier_state()
                sched = ScheduleStats()
                if op == "study":
                    payload = protocol.study_payload(
                        study_api.run_study(config, stats=sched))
                elif op == "explore-study":
                    payload = protocol.exploration_payload(
                        study_api.run_exploration_study(config,
                                                        stats=sched))
                else:
                    payload = protocol.frontier_payload(
                        study_api.run_frontier_study(config,
                                                     stats=sched))
                return payload, sched, _tier_outcome(state, before)
        else:  # analyze / explore
            protocol.validate_simple_request(request)
            result_key = _simple_result_key(digest)

            def evaluate():
                state, before = _tier_state()
                payload = _serve_cached_payload(
                    result_key,
                    lambda: (_run_analyze(request) if op == "analyze"
                             else _run_explore(request)))
                return payload, None, _tier_outcome(state, before)

        self.stats.dispatches += 1
        started = time.monotonic()
        payload, sched, tier = await self._loop.run_in_executor(
            self._executor, evaluate)
        self.stats.evaluation_seconds += time.monotonic() - started
        if sched is not None:
            self.stats.tasks_executed += sched.executed
            self.stats.max_tasks_in_flight = max(
                self.stats.max_tasks_in_flight, sched.max_in_flight)
        if tier == "hit":
            self.stats.result_hits += 1
        elif tier == "miss":
            self.stats.result_misses += 1
        return _encode({"ok": True, "op": op, "digest": digest,
                        "result": payload,
                        "meta": {"result_cache": tier}})

    def status_payload(self) -> dict:
        """The ``status`` op's answer (also ``repro serve --status``)."""
        cache = diskcache.get_cache()
        return {
            "uptime_seconds": time.monotonic() - self._t0,
            "inflight": len(self._inflight),
            "stats": self.stats.snapshot(),
            "pool": pool_status(),
            "result_cache_enabled": diskcache.result_cache_enabled(),
            "cache": (cache.stats_snapshot()
                      if cache is not None else None),
        }


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard the rest of an over-limit line, newline included."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return  # the peer closed mid-line


# -- evaluation-thread helpers -----------------------------------------------------
#
# These run on the single executor thread, which serializes them — the
# hit-counter deltas below are race-free because nothing else touches
# the cache counters between a _tier_state() and its _tier_outcome().


def _tier_state():
    """``(tier_on, result-hit count before the evaluation)``."""
    cache = diskcache.get_cache()
    if cache is None or not diskcache.result_cache_enabled():
        return False, 0
    return True, cache.hits[diskcache.RESULT_KIND]


def _tier_outcome(tier_on: bool, before: int) -> str:
    if not tier_on:
        return "off"
    cache = diskcache.get_cache()
    if cache is not None \
            and cache.hits[diskcache.RESULT_KIND] > before:
        return "hit"
    return "miss"


def _serve_cached_payload(result_key: str, compute) -> dict:
    """The serve-layer result tier for analyze/explore payload dicts."""
    cache = diskcache.get_cache()
    tier_on = cache is not None and diskcache.result_cache_enabled()
    if tier_on:
        stored = cache.load(diskcache.RESULT_KIND, result_key)
        if isinstance(stored, dict):
            return stored
        if stored is not None:  # wrong type: stale/colliding entry
            cache.unusable(diskcache.RESULT_KIND)
    payload = compute()
    if tier_on:
        cache.store(diskcache.RESULT_KIND, result_key, payload)
    return payload


def _run_analyze(request: dict) -> dict:
    from repro.chaining.coverage import analyze_coverage
    from repro.chaining.detect import detect_sequences
    from repro.cli import _random_inputs
    from repro.frontend import compile_source
    from repro.opt.pipeline import OptLevel, optimize_module
    from repro.sim.machine import run_module
    name = request["name"]
    module = compile_source(request["source"], name, filename=name)
    graph_module, _ = optimize_module(module, OptLevel(request["level"]))
    inputs = _random_inputs(module, request["seed"])
    result = run_module(graph_module, inputs, engine=request["engine"])
    lengths = tuple(request["lengths"])
    detection = detect_sequences(graph_module, result.profile, lengths)
    report = analyze_coverage(graph_module, result.profile,
                              lengths=lengths,
                              threshold=request["threshold"])
    return protocol.analyze_payload(request, result, detection, report)


def _run_explore(request: dict) -> dict:
    from repro.asip.explore import explore_designs
    from repro.exec.study import optimized_module
    from repro.opt.pipeline import OptLevel
    from repro.suite.registry import get_benchmark
    spec = get_benchmark(request["benchmark"])
    graph_module, _report = optimized_module(
        spec.name, request["level"], request["unroll_factor"])
    inputs = spec.generate_inputs(request["seed"])
    result = explore_designs(
        None, inputs, area_budget=request["budget"],
        level=OptLevel(request["level"]),
        lengths=tuple(request["lengths"]),
        max_candidates=request["max_candidates"],
        measure_top=request["measure_top"],
        unroll_factor=request["unroll_factor"],
        engine=request["engine"], optimized=graph_module)
    return protocol.explore_payload(result)

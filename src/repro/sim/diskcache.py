"""The on-disk compile-artifact cache (the cold-start tier).

The in-memory caches (`lower_module` / `generate_module`) make
*repeated* runs of one module cheap, but they die with the process:
every fresh CLI invocation and every pool worker re-lowers and
re-generates from scratch.  This module adds the tier below them — a
small content-addressed store on disk holding one codegen entry per
module (lowered words, generated sources and marshalled code objects),
so a cold process whose module was ever generated before skips the
lowering walk, the source emission and the compile entirely.

Keying.  Entries are addressed by :func:`module_digest`, a SHA-256 over
a canonical serialization of everything the lowered form depends on —
graph names, entry nodes, parameters, local arrays, node ids, successor
lists, and every instruction's opcode and operands — deliberately
*excluding* process-local instruction uids, so two processes compiling
the same source reach the same key.  The entry kind (``"codegen"``, or
``"result"`` for the whole-result tier below), the cache
:data:`FORMAT_VERSION` and the interpreter's ``cache_tag`` (the codegen
entry embeds marshalled code objects, which are CPython-version-specific)
all partition the namespace: any mismatch is a plain miss, never a
crash.

Robustness rules, pinned by ``tests/test_diskcache.py``:

* **corruption-tolerant reads** — a truncated, garbled or
  wrong-versioned entry is ignored (counted, then rewritten by the
  normal store path); no cache state can make a run fail;
* **atomic writes** — entries are written to a unique temporary file
  and published with :func:`os.replace`, so two pool workers racing on
  one key both leave a complete entry behind;
* **strictly optional** — ``REPRO_CACHE=none`` (or ``--cache-dir
  none``) disables the tier; results are bit-identical either way,
  only cold-start wall time changes.

Location resolution: ``--cache-dir`` (exported to ``REPRO_CACHE`` so
pool workers inherit it) > ``REPRO_CACHE`` > ``~/.cache/repro`` (under
``XDG_CACHE_HOME`` when set).  ``python -m repro cache show|clear``
inspects and empties the store.

Two later additions share the same store:

* **the whole-result tier** (kind :data:`RESULT_KIND`, opt-in via
  :data:`RESULT_ENV_VAR`) — ``run_study`` / ``run_exploration_study`` /
  ``run_frontier_study`` persist their *complete* results keyed by
  request shape plus :func:`result_source_token`, so a repeat query —
  from the serve daemon or a warm CLI run — is a disk read, not a
  simulation;
* **size-capped LRU eviction** (:data:`MAX_MB_ENV_VAR`) — every store
  under a configured cap triggers :meth:`DiskCache.evict_to_cap`, which
  sweeps orphaned atomic-write temporaries, then removes the
  least-recently-used unpinned entries until the store fits.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.ir.values import ArraySymbol, Constant, VirtualReg

#: Environment variable naming the cache directory (``none`` disables).
CACHE_ENV_VAR = "REPRO_CACHE"

#: When set truthy, every payload served from disk is statically verified
#: against the module before use (see :mod:`repro.analysis`); a payload
#: that fails verification is treated as a miss, counted under
#: ``rejected``, and regenerated — exactly the corruption path.
VERIFY_ENV_VAR = "REPRO_VERIFY"

#: Size cap for the store in megabytes (fractional values allowed).
#: Unset or empty means uncapped; with a cap, every store triggers a
#: size-capped LRU eviction pass (:meth:`DiskCache.evict_to_cap`).
MAX_MB_ENV_VAR = "REPRO_CACHE_MAX_MB"

#: When set truthy, the whole-result tier is active: the ``run_study``
#: family stores complete evaluation results under kind
#: :data:`RESULT_KIND` and answers repeat queries from disk.  Off by
#: default — whole results are far larger than compile artifacts, and
#: the tier would short-circuit any suite that re-runs one config on
#: purpose; the serve daemon turns it on for its own process.
RESULT_ENV_VAR = "REPRO_RESULT_CACHE"

#: Entry kind of the whole-result tier.
RESULT_KIND = "result"

#: Orphaned ``.*.tmp`` files older than this many seconds are deleted
#: by eviction scans (a crashed writer's leftovers); younger ones are
#: presumed to belong to a still-racing writer and left alone.
TMP_SWEEP_AGE_SECONDS = 3600.0

#: The value of :data:`CACHE_ENV_VAR` (or ``--cache-dir``) that disables
#: the disk tier entirely.
DISABLE_VALUE = "none"

#: Bumped whenever the entry payload layout changes; older entries
#: become plain misses.
#: v3: one codegen entry per module — per-graph ``"sources"`` and a
#: marshalled tuple of per-graph code objects; no ``"bounds"``
#: certificate, no ``bytecode``/``lanes`` kinds.
#: v4: lowered graphs pickle by default — flat word lists whose jump
#: targets and entry are word indices, with no fused op+jump opcodes.
FORMAT_VERSION = 4

#: Marshalled code objects are interpreter-specific; the tag partitions
#: entries per CPython version (e.g. ``cpython-311``).
_CACHE_TAG = getattr(sys.implementation, "cache_tag", None) or \
    "py%d%d" % sys.version_info[:2]

#: Modules whose source text keys codegen entries (:func:`_source_token`);
#: every class a stored payload pickles must come from one of them.
SOURCE_TOKEN_MODULES = ("repro.sim.engine", "repro.sim.codegen",
                        "repro.ir.values")

_source_token_cache: Optional[str] = None


def _source_token() -> str:
    """A short hash over the compiler sources entries depend on.

    Lowered words embed raw opcode numbers (assigned by a counter in
    ``engine.py``) and the codegen entry embeds generated source — both
    are artifacts of the *current* compiler code, not just the module
    structure.  Folding a digest of the engine/codegen sources into the
    entry namespace turns any edit to them (an inserted opcode, a
    changed emitter) into plain misses, instead of relying on a
    hand-maintained :data:`FORMAT_VERSION` bump to avoid silently
    executing stale entries.  ``ir/values.py`` is folded in too: the
    lowered plans pickle its :class:`~repro.ir.values.ArraySymbol`
    instances, so a change to an operand class must not meet entries
    pickled under the old layout.
    """
    global _source_token_cache
    if _source_token_cache is None:
        h = hashlib.sha256()
        try:
            for name in SOURCE_TOKEN_MODULES:
                with open(importlib.import_module(name).__file__,
                          "rb") as fh:
                    h.update(fh.read())
            _source_token_cache = h.hexdigest()[:12]
        except Exception:  # pragma: no cover - source not readable
            _source_token_cache = "src"
    return _source_token_cache


_result_token_cache: Optional[str] = None


def result_source_token() -> str:
    """A short hash over every source a whole evaluation depends on.

    Whole results fold in the front end, the optimizer, pattern
    detection, the cost model and both engines — far more than the
    engine/codegen sources :func:`_source_token` covers — so the result
    tier keys over a digest of the entire ``repro`` package: any source
    edit turns stored results into plain misses instead of ever serving
    a stale evaluation.
    """
    global _result_token_cache
    if _result_token_cache is None:
        h = hashlib.sha256()
        try:
            package_root = Path(__file__).resolve().parent.parent
            for path in sorted(package_root.rglob("*.py")):
                h.update(str(path.relative_to(package_root)).encode())
                h.update(path.read_bytes())
            _result_token_cache = h.hexdigest()[:16]
        except Exception:  # pragma: no cover - source not readable
            _result_token_cache = "resultsrc"
    return _result_token_cache


def result_cache_enabled() -> bool:
    """Whether the whole-result tier (:data:`RESULT_ENV_VAR`) is on."""
    value = os.environ.get(RESULT_ENV_VAR, "")
    return value.strip().lower() in ("1", "true", "on", "yes")


def resolve_max_bytes(strict: bool = False) -> Optional[int]:
    """The size cap in bytes from :data:`MAX_MB_ENV_VAR`, or ``None``.

    On the hot path a malformed or non-positive value means "no cap" —
    :meth:`DiskCache.store` must never raise.  ``strict=True`` (used by
    ``repro cache show`` and the serve status endpoint) raises
    :class:`~repro.errors.ReproError` instead, so a typo in the knob is
    diagnosable rather than silently uncapped.
    """
    raw = os.environ.get(MAX_MB_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        mb = float(raw)
    except ValueError:
        if strict:
            raise ReproError(
                f"invalid {MAX_MB_ENV_VAR}={raw!r} (expected a number "
                f"of megabytes)")
        return None
    if mb <= 0:
        if strict:
            raise ReproError(f"{MAX_MB_ENV_VAR} must be > 0, got {raw!r}")
        return None
    return int(mb * 1024 * 1024)


def default_cache_root() -> Path:
    """``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base).expanduser() / "repro"
    return Path.home() / ".cache" / "repro"


def resolve_cache_root() -> Optional[Path]:
    """The directory the disk tier should use, or ``None`` when disabled.

    Consulted on every :func:`get_cache` call, so tests (and the CLI's
    ``--cache-dir``, which writes :data:`CACHE_ENV_VAR` so pool workers
    inherit the choice) can repoint or disable the tier at any time.
    """
    raw = os.environ.get(CACHE_ENV_VAR)
    if raw is None:
        return default_cache_root()
    raw = raw.strip()
    if not raw or raw.lower() == DISABLE_VALUE:
        return None
    return Path(raw).expanduser()


def set_cache_dir(value: Optional[str]) -> None:
    """Point the disk tier at *value* (``'none'``/``None`` disables).

    Writes :data:`CACHE_ENV_VAR` rather than process-local state so
    worker processes spawned later inherit the same setting.
    """
    os.environ[CACHE_ENV_VAR] = DISABLE_VALUE if value is None \
        else str(value)


# -- the structural digest ---------------------------------------------------------


def _feed_operand(parts: List[str], operand) -> None:
    if isinstance(operand, VirtualReg):
        parts.append(f"R{operand.is_float:d}:{operand.name}")
    elif isinstance(operand, Constant):
        parts.append(f"C{operand.is_float:d}:{operand.value!r}")
    elif isinstance(operand, ArraySymbol):
        parts.append(f"A{operand.is_float:d}{operand.is_global:d}:"
                     f"{operand.name}:{operand.size}")
    elif operand is None:
        parts.append("_")
    else:  # unreadable operands lower to error words carrying repr()
        parts.append(f"O:{operand!r}")


def _feed_instruction(parts: List[str], ins) -> None:
    parts.append(f"I:{ins.op.name}")
    _feed_operand(parts, ins.dest)
    parts.append(str(len(ins.srcs)))
    for src in ins.srcs:
        _feed_operand(parts, src)
    _feed_operand(parts, ins.array)
    parts.append(repr(ins.callee))
    chain = getattr(ins, "parts", None)
    if chain is not None:
        parts.append(f"chain:{len(chain)}")
        for part in chain:
            _feed_instruction(parts, part)


def module_digest(module) -> str:
    """Content hash of everything the lowered/generated forms depend on.

    Uid-invariant and process-invariant: the same mini-C source compiled
    in two different processes (or the same process twice) digests
    identically, while any structural difference — an extra node, a
    rewritten operand, a different successor order — changes the key.
    Mirrors the coverage of the in-memory structural signature
    (:func:`repro.sim.engine._iter_signature`) with instruction
    *identity* replaced by instruction *content*.
    """
    parts: List[str] = ["G:" + ",".join(sorted(module.global_arrays))]
    for name, graph in module.graphs.items():
        parts.append(f"F:{name}:{graph.entry!r}")
        parts.append(f"P:{len(graph.params)}")
        for param in graph.params:
            _feed_operand(parts, param)
        parts.append(f"L:{len(graph.local_arrays)}")
        for symbol in graph.local_arrays:
            _feed_operand(parts, symbol)
        for nid, node in graph.nodes.items():
            parts.append(f"N:{nid}:{','.join(map(str, node.succs))}")
            for ins in node.ops:
                _feed_instruction(parts, ins)
            parts.append("ctl")
            if node.control is not None:
                _feed_instruction(parts, node.control)
    h = hashlib.sha256()
    h.update("\x00".join(parts).encode("utf-8", "backslashreplace"))
    return h.hexdigest()


# -- the store ---------------------------------------------------------------------


class DiskCache:
    """One cache directory plus this process's hit/miss accounting.

    ``hits`` / ``misses`` / ``stores`` / ``corrupt`` are
    :class:`collections.Counter` objects keyed by entry kind
    (``"codegen"`` / ``"result"``); tests and the exploration benchmarks
    read them to assert that warm runs actually skipped lowering and
    generation.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.stores: Counter = Counter()
        self.corrupt: Counter = Counter()
        self.failures: Counter = Counter()  # stores that could not land
        self.rejected: Counter = Counter()  # verify-on-load refusals
        self.evictions: Counter = Counter()  # entries removed by the cap
        self.evicted_bytes: Counter = Counter()
        self.bytes_read: Counter = Counter()  # entry bytes served on hits
        self.bytes_written: Counter = Counter()  # entry bytes published
        #: wall-clock accounting per operation class — ``op_count`` and
        #: ``op_seconds`` are keyed ``"hit"`` / ``"miss"`` / ``"store"``
        #: / ``"evict"``; ``repro cache show`` and the serve status
        #: endpoint derive per-op averages from them.
        self.op_count: Counter = Counter()
        self.op_seconds: Counter = Counter()
        #: orphaned atomic-write temporaries reaped so far (see
        #: :meth:`sweep_stale_tmp`).
        self.tmp_swept = 0
        #: refcounts of ``(kind, digest)`` entries live requests hold;
        #: the serve daemon pins a result key for the duration of its
        #: evaluation so the eviction pass never removes it mid-request.
        self._pins: Counter = Counter()
        #: ``(kind, digest)`` pairs whose payloads already passed the
        #: verify-on-load gate this process.  The digest keys the entry
        #: file, so a re-load serves the same bytes — re-checking them
        #: would only re-derive the same verdict.
        self.verified: set = set()

    def _account(self, op: str, started: float) -> None:
        self.op_count[op] += 1
        self.op_seconds[op] += time.perf_counter() - started

    # -- paths ---------------------------------------------------------------------

    @property
    def entry_dir(self) -> Path:
        return self.root / f"v{FORMAT_VERSION}" / \
            f"{_CACHE_TAG}-{_source_token()}"

    def entry_path(self, kind: str, digest: str) -> Path:
        return self.entry_dir / f"{digest}.{kind}.pkl"

    # -- read / write --------------------------------------------------------------

    def load(self, kind: str, digest: str):
        """The stored payload, or ``None`` on any kind of miss.

        A malformed entry — truncated write, foreign file, stale class
        layout, header mismatch — is treated exactly like an absent one
        (counted under ``corrupt``); the caller regenerates and the
        normal store path rewrites it.  A hit bumps the entry's access
        time, which is what the LRU eviction pass ranks by.
        """
        started = time.perf_counter()
        path = self.entry_path(kind, digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            entry = pickle.loads(blob)
            if (entry.get("version"), entry.get("kind"),
                    entry.get("digest")) != (FORMAT_VERSION, kind, digest):
                raise ValueError("cache entry header mismatch")
            payload = entry["payload"]
        except FileNotFoundError:
            self.misses[kind] += 1
            self._account("miss", started)
            return None
        except Exception:
            self.corrupt[kind] += 1
            self.misses[kind] += 1
            self._account("miss", started)
            return None
        self.hits[kind] += 1
        self.bytes_read[kind] += len(blob)
        self._touch(path)
        self._account("hit", started)
        return payload

    @staticmethod
    def _touch(path: Path) -> None:
        # Recency for the eviction pass.  Bumped explicitly rather than
        # trusting the kernel's bookkeeping (relatime/noatime mounts),
        # and atime-only: mtime stays the publish timestamp.
        try:
            stat = path.stat()
            os.utime(path, ns=(time.time_ns(), stat.st_mtime_ns))
        except OSError:  # pragma: no cover - entry raced away
            pass

    def _reclassify(self, kind: str, into: Counter) -> bool:
        # Guarded: with no hit on record — a double call, or a call on a
        # handle that never served one because get_cache() swapped
        # handles when REPRO_CACHE was repointed mid-operation — the
        # counters are left alone instead of being driven negative.
        if self.hits[kind] <= 0:
            return False
        self.hits[kind] -= 1
        self.misses[kind] += 1
        into[kind] += 1
        return True

    def unusable(self, kind: str) -> bool:
        """Reclassify the most recent hit as a corrupt miss.

        Called by a consumer whose entry unpickled cleanly but failed
        reconstruction (stale class layout), so the hit counters only
        ever count entries that were actually *served* — assertions on
        them stay meaningful.  Returns whether a hit was actually
        reclassified; with none on record this is a counted no-op.
        """
        return self._reclassify(kind, self.corrupt)

    def reject(self, kind: str) -> bool:
        """Reclassify the most recent hit as a verification refusal.

        The verify-on-load gate (:data:`VERIFY_ENV_VAR`) calls this when
        an entry unpickled cleanly but its payload violates a static
        invariant; like :meth:`unusable`, the hit becomes a miss and the
        caller regenerates.  Returns whether a hit was reclassified.
        """
        return self._reclassify(kind, self.rejected)

    def store(self, kind: str, digest: str, payload) -> bool:
        """Atomically publish *payload*; never raises.

        The entry is serialized first, written to a process-unique
        temporary file in the entry directory and renamed into place
        (:func:`os.replace`), so concurrent writers of one key — two
        pool workers compiling the same benchmark — each publish a
        complete entry and the survivor is valid either way.

        With :data:`MAX_MB_ENV_VAR` configured, a landed store triggers
        an LRU eviction pass so the store never outgrows the cap.
        """
        started = time.perf_counter()
        try:
            blob = pickle.dumps(
                {"version": FORMAT_VERSION, "kind": kind, "digest": digest,
                 "payload": payload},
                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.failures[kind] += 1
            return False
        path = self.entry_path(kind, digest)
        try:
            self.entry_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{digest[:12]}.", suffix=".tmp",
                dir=str(self.entry_dir))
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.failures[kind] += 1
            return False
        self.stores[kind] += 1
        self.bytes_written[kind] += len(blob)
        self._account("store", started)
        if resolve_max_bytes() is not None:
            self.evict_to_cap()
        return True

    # -- pinning / eviction --------------------------------------------------------

    def pin(self, kind: str, digest: str) -> None:
        """Shield an entry from eviction while a live request needs it.

        Refcounted: concurrent requests over the same key pin and unpin
        independently; the entry becomes evictable only when the last
        holder lets go.
        """
        self._pins[(kind, digest)] += 1

    def unpin(self, kind: str, digest: str) -> None:
        """Release one :meth:`pin` hold on an entry."""
        remaining = self._pins[(kind, digest)] - 1
        if remaining > 0:
            self._pins[(kind, digest)] = remaining
        else:
            self._pins.pop((kind, digest), None)

    def is_pinned(self, kind: str, digest: str) -> bool:
        return self._pins[(kind, digest)] > 0

    def sweep_stale_tmp(
            self, max_age: float = TMP_SWEEP_AGE_SECONDS) -> int:
        """Delete orphaned atomic-write temporaries; returns the count.

        A writer that died between ``mkstemp`` and ``os.replace`` leaves
        its ``.*.tmp`` file behind forever — nothing else ever touches
        it again.  The age gate keeps racing *live* writers safe: files
        younger than *max_age* seconds are presumed in flight.
        """
        now = time.time()
        swept = 0
        for path in self.tmp_files():
            try:
                if now - path.stat().st_mtime < max_age:
                    continue
                path.unlink()
            except OSError:
                continue
            swept += 1
        self.tmp_swept += swept
        return swept

    def evict_to_cap(self, max_bytes: Optional[int] = None) -> int:
        """Bring the store under the size cap; returns entries evicted.

        Least-recently-used first, where recency is the later of the
        entry's access time (bumped by :meth:`load` on every hit) and
        its publish mtime; ties break on the entry file name so the
        order is deterministic.  Pinned entries — keys a live request
        holds (:meth:`pin`) — are never evicted regardless of age.
        Orphaned temporaries are swept first so a crashed writer's
        leftovers never crowd out real entries.  Never raises; with no
        cap configured (and no explicit *max_bytes*) this is a no-op.
        """
        if max_bytes is None:
            max_bytes = resolve_max_bytes()
        if max_bytes is None:
            return 0
        started = time.perf_counter()
        self.sweep_stale_tmp()
        ranked = []
        total = 0
        for kind, path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            digest = path.name[:-len(".pkl")].rsplit(".", 1)[0]
            ranked.append((max(stat.st_atime, stat.st_mtime), path.name,
                           stat.st_size, kind, digest, path))
            total += stat.st_size
        evicted = 0
        for _recency, _name, size, kind, digest, path in sorted(ranked):
            if total <= max_bytes:
                break
            if self.is_pinned(kind, digest):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions[kind] += 1
            self.evicted_bytes[kind] += size
            evicted += 1
        self._account("evict", started)
        return evicted

    # -- inspection ----------------------------------------------------------------

    def _version_dirs(self) -> List[Path]:
        """The cache's own ``v<digits>`` layout directories — and only
        those, so a cache root pointed at a shared directory never
        exposes unrelated children (``vendor/``, ``venv/``, …) to
        iteration or, worse, to :meth:`clear`."""
        if not self.root.is_dir():
            return []
        return sorted(path for path in self.root.glob("v*")
                      if path.is_dir() and path.name[1:].isdigit())

    def entries(self) -> Iterator[Tuple[str, Path]]:
        """``(kind, path)`` for every entry file of any version/tag."""
        for version_dir in self._version_dirs():
            for path in sorted(version_dir.rglob("*.pkl")):
                stem = path.name[:-len(".pkl")]
                kind = stem.rsplit(".", 1)[1] if "." in stem else "?"
                yield kind, path

    def tmp_files(self) -> List[Path]:
        """Leftover atomic-write temporaries of any version/tag."""
        found: List[Path] = []
        for version_dir in self._version_dirs():
            found.extend(sorted(version_dir.rglob("*.tmp")))
        return found

    def total_bytes(self) -> int:
        """Bytes currently occupied by entry files (tmp files excluded)."""
        total = 0
        for _kind, path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def stats_snapshot(self) -> dict:
        """This process's counters as one JSON-able dict.

        The serve daemon's status endpoint ships this verbatim; tests
        use it to assert that no counter ever goes negative.
        """
        kinds = sorted(set().union(
            self.hits, self.misses, self.stores, self.corrupt,
            self.failures, self.rejected, self.evictions))
        return {
            "root": str(self.root),
            "kinds": {kind: {
                "hits": self.hits[kind],
                "misses": self.misses[kind],
                "stores": self.stores[kind],
                "corrupt": self.corrupt[kind],
                "rejected": self.rejected[kind],
                "store_failures": self.failures[kind],
                "evictions": self.evictions[kind],
                "evicted_bytes": self.evicted_bytes[kind],
                "bytes_read": self.bytes_read[kind],
                "bytes_written": self.bytes_written[kind],
            } for kind in kinds},
            "ops": {op: {"count": self.op_count[op],
                         "seconds": self.op_seconds[op]}
                    for op in sorted(self.op_count)},
            "tmp_swept": self.tmp_swept,
            "pinned": len(self._pins),
        }

    def clear(self) -> int:
        """Delete every entry (all versions/tags); returns files removed.

        Only the cache's own version directories are touched; anything
        else living under the root is left alone.  Orphaned atomic-write
        temporaries go with their directories and are counted too — a
        full clear is the other place (besides eviction scans) where a
        crashed writer's leftovers get reaped.
        """
        import shutil
        removed = sum(1 for _ in self.entries())
        stale = len(self.tmp_files())
        for version_dir in self._version_dirs():
            shutil.rmtree(version_dir, ignore_errors=True)
        self.tmp_swept += stale
        return removed + stale


# -- the process-wide handle -------------------------------------------------------

_active: Optional[Tuple[Path, DiskCache]] = None


def get_cache() -> Optional[DiskCache]:
    """The process's cache handle for the currently-resolved root.

    ``None`` when the tier is disabled.  The handle (and its counters)
    is stable while the resolved root stays the same; repointing
    ``REPRO_CACHE`` mid-process — tests do — swaps in a fresh handle.
    """
    global _active
    root = resolve_cache_root()
    if root is None:
        return None
    if _active is None or _active[0] != root:
        _active = (root, DiskCache(root))
    return _active[1]


def reset_cache_state() -> None:
    """Drop the process-wide handle (tests; counters start over)."""
    global _active
    _active = None


def verify_on_load() -> bool:
    """Whether the verify-on-load gate (:data:`VERIFY_ENV_VAR`) is on."""
    value = os.environ.get(VERIFY_ENV_VAR, "")
    return value.strip().lower() in ("1", "true", "on", "yes")

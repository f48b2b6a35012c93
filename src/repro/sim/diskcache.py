"""The on-disk compile-artifact cache (the cold-start tier).

The in-memory slot (`lower_module` / `generate_module`) makes
*repeated* runs of one module cheap, but it dies with the process:
every fresh CLI invocation and every pool worker re-lowers and
re-generates from scratch.  This module adds the tier below them — a
small content-addressed store on disk holding one codegen entry per
module (lowered words, generated sources and marshalled code objects),
so a cold process whose module was ever generated before skips the
lowering walk, the source emission and the compile entirely.  Above it
sits the ``"optimized"`` kind (:data:`OPTIMIZED_KIND`): one
``(graph_module, report)`` pair per benchmark, level and unroll factor,
so a warm exploration or frontier task skips the front end and the
optimizer as well (:func:`repro.exec.study.optimized_module`).

Keying.  A codegen entry is addressed by the module's
:func:`content_key`, which also keys its in-memory slot: one content
key per module state, in memory and on disk.  For most modules that is
:func:`module_digest`, a SHA-256 over a canonical serialization of
everything the lowered form depends on — graph names, entry nodes,
parameters, local arrays, node ids, successor lists, and every
instruction's opcode and operands — deliberately *excluding*
process-local instruction uids, so two processes compiling the same
source reach the same key.  An exploration module instead carries a
provenance key (``GraphModule.provenance_key``), stamped by the step
that built it from its input's key (:func:`derive_stamp`): the
optimized module's from its :func:`optimized_key`, the resequenced
module's from that, each fused program's from the resequenced key and
its fused sites.  No walk is needed, and because every such key roots
in :func:`optimized_key`, and so in :func:`result_source_token`, an
edit to any step is a plain miss.  A stamped module is never edited in
place; an unstamped one may be, and its digest follows the edit.  An
optimized entry is keyed by :func:`optimized_key` itself:
the benchmark's name and program text, the level, the unroll factor and
:func:`result_source_token`, which covers the front end and the
optimizer.  The entry kind (``"codegen"``, ``"optimized"``, or
``"result"`` for the whole-result tier below), the cache
:data:`FORMAT_VERSION` and the
interpreter's ``cache_tag`` (the codegen entry embeds marshalled code
objects, which are CPython-version-specific) all partition the
namespace: any mismatch is a plain miss, never a crash.

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

The whole-result tier shares the same store (kind :data:`RESULT_KIND`,
opt-in via :data:`RESULT_ENV_VAR`): ``run_study`` /
``run_exploration_study`` / ``run_frontier_study`` persist their
*complete* results keyed by request shape plus
:func:`result_source_token`, so a repeat query — from the serve daemon
or a warm CLI run — is a disk read, not a simulation.  They and the
daemon's ``analyze``/``explore`` payloads go through one load /
type-check / store path, :func:`cached_result`.

The store has no size cap: each workload's store is a few megabytes,
and ``repro cache clear`` empties it.
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
from typing import Callable, Iterator, List, Optional, Tuple

from repro.ir.values import ArraySymbol, Constant, VirtualReg

#: Environment variable naming the cache directory (``none`` disables).
CACHE_ENV_VAR = "REPRO_CACHE"

#: When set truthy, every codegen payload served from disk is compared
#: with a fresh generation of the module before use
#: (:func:`repro.sim.codegen.generate_module`), and every optimized
#: payload with a fresh optimization
#: (:func:`repro.exec.study.optimized_module`); a payload that holds a
#: different program is treated as a miss, counted under ``rejected``,
#: and re-stored — exactly the corruption path.
VERIFY_ENV_VAR = "REPRO_VERIFY"

#: When set truthy, the whole-result tier is active: the ``run_study``
#: family stores complete evaluation results under kind
#: :data:`RESULT_KIND` and answers repeat queries from disk.  Off by
#: default — whole results are far larger than compile artifacts, and
#: the tier would short-circuit any suite that re-runs one config on
#: purpose; the serve daemon turns it on for its own process.
RESULT_ENV_VAR = "REPRO_RESULT_CACHE"

#: Entry kind of the whole-result tier.
RESULT_KIND = "result"

#: Entry kind of the optimized-module tier: ``(graph_module, report)``.
OPTIMIZED_KIND = "optimized"

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
#: v5: one opcode per operation (13 in all); each operand carries its
#: kind (register slot, ``(value,)`` constant, ``(slot, name)`` checked
#: read) instead of the opcode naming the operand kinds.
FORMAT_VERSION = 5

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


def derived_key(*parts: str) -> str:
    """A SHA-256 over *parts*, NUL-separated: how every key of the
    store is formed, and the key a producer stamps on a module from the
    name of its step, its input's key and whatever else the step reads
    (:func:`derive_stamp`)."""
    h = hashlib.sha256()
    h.update("\x00".join(parts).encode("utf-8", "backslashreplace"))
    return h.hexdigest()


def optimized_key(name: str, source: str, level: int,
                  unroll_factor: int) -> str:
    """The key of one benchmark's optimized entry.

    A SHA-256 over the benchmark *name*, its program text, the level,
    the unroll factor and :func:`result_source_token`: the token hashes
    the whole package, so an edit to the front end, the optimizer or the
    IR classes turns every stored entry into a plain miss.
    """
    return derived_key(name, source, str(int(level)), str(unroll_factor),
                       result_source_token())


def result_cache_enabled() -> bool:
    """Whether the whole-result tier (:data:`RESULT_ENV_VAR`) is on."""
    value = os.environ.get(RESULT_ENV_VAR, "")
    return value.strip().lower() in ("1", "true", "on", "yes")


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
    It covers every instruction field lowering reads (``op``, ``dest``,
    ``srcs``, ``array``, ``callee`` and chained ``parts``), so it keys
    the module's in-memory compiled slot as well as its disk entry.
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
    return derived_key(*parts)


# -- provenance keys ---------------------------------------------------------------


def derive_stamp(module, parent, step: str, *parts: str):
    """Stamp *module*, built from *parent* by *step*, with
    ``derived_key(step, parent's key, *parts)``; an unstamped *parent*
    leaves *module* unstamped.  Returns *module*."""
    key = parent.provenance_key
    if key is not None:
        module.provenance_key = derived_key(step, key, *parts)
    return module


def content_key(module) -> str:
    """The key of *module*'s compiled slot and codegen entry: its
    ``provenance_key`` when a producer stamped one, otherwise
    :func:`module_digest`, the walk."""
    key = module.provenance_key
    return module_digest(module) if key is None else key


# -- the store ---------------------------------------------------------------------


class DiskCache:
    """One cache directory plus this process's hit/miss accounting.

    ``hits`` / ``misses`` / ``stores`` / ``corrupt`` are
    :class:`collections.Counter` objects keyed by entry kind
    (``"codegen"`` / ``"optimized"`` / ``"result"``); tests and the
    exploration benchmarks read them to assert that warm runs actually
    skipped optimization, lowering and generation.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.stores: Counter = Counter()
        self.corrupt: Counter = Counter()
        self.failures: Counter = Counter()  # stores that could not land
        self.rejected: Counter = Counter()  # verify-on-load refusals
        self.bytes_read: Counter = Counter()  # entry bytes served on hits
        self.bytes_written: Counter = Counter()  # entry bytes published
        #: wall-clock accounting per operation class — ``op_count`` and
        #: ``op_seconds`` are keyed ``"hit"`` / ``"miss"`` / ``"store"``;
        #: ``repro cache show`` and the serve status endpoint derive
        #: per-op averages from them.
        self.op_count: Counter = Counter()
        self.op_seconds: Counter = Counter()
        #: orphaned atomic-write temporaries reaped so far (by
        #: :meth:`clear`).
        self.tmp_swept = 0

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
        normal store path rewrites it.
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
        self._account("hit", started)
        return payload

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
        an entry unpickled cleanly but does not hold the program a fresh
        generation emits; like :meth:`unusable`, the hit becomes a miss
        and the caller re-stores the entry.  Returns whether a hit was
        reclassified.
        """
        return self._reclassify(kind, self.rejected)

    def store(self, kind: str, digest: str, payload) -> bool:
        """Atomically publish *payload*; never raises.

        The entry is serialized first, written to a process-unique
        temporary file in the entry directory and renamed into place
        (:func:`os.replace`), so concurrent writers of one key — two
        pool workers compiling the same benchmark — each publish a
        complete entry and the survivor is valid either way.
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
        return True

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

    def stats_snapshot(self) -> dict:
        """This process's counters as one JSON-able dict.

        The serve daemon's status endpoint ships this verbatim; tests
        use it to assert that no counter ever goes negative.
        """
        kinds = sorted(set().union(
            self.hits, self.misses, self.stores, self.corrupt,
            self.failures, self.rejected))
        return {
            "root": str(self.root),
            "kinds": {kind: {
                "hits": self.hits[kind],
                "misses": self.misses[kind],
                "stores": self.stores[kind],
                "corrupt": self.corrupt[kind],
                "rejected": self.rejected[kind],
                "store_failures": self.failures[kind],
                "bytes_read": self.bytes_read[kind],
                "bytes_written": self.bytes_written[kind],
            } for kind in kinds},
            "ops": {op: {"count": self.op_count[op],
                         "seconds": self.op_seconds[op]}
                    for op in sorted(self.op_count)},
            "tmp_swept": self.tmp_swept,
        }

    def clear(self) -> int:
        """Delete every entry (all versions/tags); returns files removed.

        Only the cache's own version directories are touched; anything
        else living under the root is left alone.  Orphaned atomic-write
        temporaries go with their directories and are counted too — a
        full clear is where a crashed writer's leftovers get reaped.
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


def cached_result(key: Callable[[], str], result_type, compute):
    """``compute()`` through the whole-result tier (:data:`RESULT_KIND`).

    With the tier on, a stored entry of *result_type* under ``key()``
    answers without computing; an entry of another type (stale or
    colliding) is reclassified as corrupt via :meth:`DiskCache.unusable`
    and replaced by the fresh result.  With the tier off this is just
    ``compute()`` and *key* is never called.
    """
    cache = get_cache() if result_cache_enabled() else None
    if cache is None:
        return compute()
    digest = key()
    stored = cache.load(RESULT_KIND, digest)
    if isinstance(stored, result_type):
        return stored
    if stored is not None:
        cache.unusable(RESULT_KIND)
    result = compute()
    cache.store(RESULT_KIND, digest, result)
    return result


def reset_cache_state() -> None:
    """Drop the process-wide handle (tests; counters start over)."""
    global _active
    _active = None


def verify_on_load() -> bool:
    """Whether the verify-on-load gate (:data:`VERIFY_ENV_VAR`) is on."""
    value = os.environ.get(VERIFY_ENV_VAR, "")
    return value.strip().lower() in ("1", "true", "on", "yes")

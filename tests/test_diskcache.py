"""The compile-artifact disk cache: equivalence, robustness, lifecycle.

The disk tier may only ever change *wall time*: a run served from a warm
cache must be bit-identical to a regenerated run on every engine, any
broken entry must read as a miss (then be rewritten), and concurrent
writers must never publish a torn file.  Everything here runs against a
throwaway cache directory via ``REPRO_CACHE``.
"""

import importlib
import os
import pickle
import pickletools
import subprocess
import sys
import threading

import pytest

from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.diskcache import (DISABLE_VALUE, DiskCache, FORMAT_VERSION,
                                 OPTIMIZED_KIND, get_cache, module_digest,
                                 optimized_key, resolve_cache_root)
from repro.sim.machine import ENGINES, run_module
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark

SPEC = get_benchmark("sewha")
INPUTS = SPEC.generate_inputs(0)


def fresh_graph_module(level=1):
    """A structurally-identical-but-new module: what a cold process (or a
    pool worker receiving a cache-stripped pickle) starts from."""
    gm, _ = optimize_module(compile_benchmark(SPEC), OptLevel(level))
    return gm


def result_projection(result):
    return (result.return_value, result.globals_after, result.cycles,
            result.profile.node_counts, result.profile.edge_counts,
            result.profile.call_counts)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    diskcache.reset_cache_state()
    yield tmp_path
    diskcache.reset_cache_state()


class TestDigest:
    def test_process_invariant_across_recompiles(self):
        # Same source, two front-end runs: instruction uids differ, the
        # structural digest must not (it is the cold-process cache key).
        assert module_digest(fresh_graph_module()) == \
            module_digest(fresh_graph_module())

    def test_distinguishes_levels_and_benchmarks(self):
        digests = {module_digest(fresh_graph_module(level))
                   for level in (0, 1, 2)}
        assert len(digests) == 3
        other, _ = optimize_module(
            compile_benchmark(get_benchmark("dft")), OptLevel(1))
        assert module_digest(other) not in digests

    def test_changes_on_graph_mutation(self):
        gm = fresh_graph_module()
        before = module_digest(gm)
        graph = gm.entry
        node = next(iter(graph.nodes.values()))
        node.succs = list(node.succs)  # same structure: same digest
        assert module_digest(gm) == before
        nid = next(iter(graph.nodes))
        graph.nodes[nid].succs.append(nid)
        assert module_digest(gm) != before

    def test_changes_on_load_array_edit(self):
        """Two modules that differ only in which array one load reads
        must not share a key: their entries hold different programs."""
        source = ("int x[4];\nint z[4];\n"
                  "int main() {\n    return x[1] + z[2];\n}\n")
        gm, _ = optimize_module(compile_source(source), OptLevel(1))
        before = module_digest(gm)
        loads = [ins for graph in gm.graphs.values()
                 for node in graph.nodes.values() for ins in node.ops
                 if ins.array is not None]
        x_load = next(ins for ins in loads if ins.array.name == "x")
        z_symbol = next(ins.array for ins in loads
                        if ins.array.name == "z")
        x_load.array = z_symbol
        assert module_digest(gm) != before

    def test_changes_on_global_array_kind(self):
        """Generated stores coerce to their global array's kind, so two
        modules whose globals differ only in kind must not share a key."""
        from repro.ir.values import ArraySymbol
        gm = fresh_graph_module()
        before = module_digest(gm)
        name, symbol = next(iter(gm.global_arrays.items()))
        gm.global_arrays[name] = ArraySymbol(name, symbol.size,
                                             not symbol.is_float)
        assert module_digest(gm) != before

    def test_changes_on_successor_order(self):
        """A branch's successor order is its taken/fall-through choice."""
        gm = fresh_graph_module()
        before = module_digest(gm)
        node = next(node for graph in gm.graphs.values()
                    for node in graph.nodes.values()
                    if len(set(node.succs)) == 2)
        node.succs = list(reversed(node.succs))
        assert module_digest(gm) != before


class TestEquivalence:
    def test_warm_hit_bit_identical_on_all_engines(self, cache_dir,
                                                   monkeypatch):
        # Reference: the tier disabled entirely.
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        diskcache.reset_cache_state()
        assert get_cache() is None
        reference = {(engine, level):
                     result_projection(run_module(
                         fresh_graph_module(level), INPUTS, engine=engine))
                     for engine in ENGINES for level in (0, 1, 2)}

        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(cache_dir))
        diskcache.reset_cache_state()
        cold = {key: result_projection(run_module(
                    fresh_graph_module(key[1]), INPUTS, engine=key[0]))
                for key in reference}
        cache = get_cache()
        # one entry per module: the codegen entry carries the lowering
        assert dict(cache.stores) == {"codegen": 3}
        assert [kind for kind, _ in cache.entries()] == ["codegen"] * 3
        warm = {key: result_projection(run_module(
                    fresh_graph_module(key[1]), INPUTS, engine=key[0]))
                for key in reference}
        assert dict(cache.hits) == {"codegen": 3}
        assert dict(cache.stores) == {"codegen": 3}
        assert not cache.corrupt
        assert cold == reference
        assert warm == reference

    def test_warm_hit_skips_lowering_and_generation(self, cache_dir,
                                                    monkeypatch):
        from repro.sim import codegen as codegen_mod
        from repro.sim import engine as engine_mod
        cold = result_projection(run_module(fresh_graph_module(), INPUTS))

        def refuse(*_args, **_kwargs):
            raise AssertionError(
                "warm disk cache must skip lowering/generation/compiling")
        # The verify-on-load gate generates afresh by design, to compare
        # the entry with; only an ungated hit skips the work.
        if not diskcache.verify_on_load():
            monkeypatch.setattr(engine_mod.LoweredModule, "__init__",
                                refuse)
            monkeypatch.setattr(codegen_mod, "_FunctionEmitter", refuse)
            monkeypatch.setattr(codegen_mod, "_compile_sources", refuse)
        before = get_cache().hits["codegen"]
        warm = result_projection(run_module(fresh_graph_module(), INPUTS))
        assert warm == cold
        assert get_cache().hits["codegen"] == before + 1

    def test_disk_hit_keeps_a_held_lowering(self, cache_dir):
        """Lowering first, then generating from a disk hit, leaves the
        module on the lowering it already held, in any test order."""
        from repro.sim.codegen import generate_module
        from repro.sim.engine import lower_module
        generate_module(fresh_graph_module())  # publishes the entry
        gm = fresh_graph_module()
        first = lower_module(gm)
        hits = get_cache().hits["codegen"]
        generated = generate_module(gm)
        assert get_cache().hits["codegen"] == hits + 1
        assert generated.lowered is first
        assert lower_module(gm) is first

    def test_cold_process_hits_warm_cache(self, cache_dir):
        # A genuinely cold interpreter: prime from one subprocess, then
        # assert a second subprocess serves the module from disk and
        # produces the reference engine's outputs.
        script = (
            "import os, sys\n"
            "from repro.opt.pipeline import OptLevel, optimize_module\n"
            "from repro.sim.diskcache import get_cache\n"
            "from repro.sim.machine import run_module\n"
            "from repro.suite.registry import get_benchmark\n"
            "from repro.suite.runner import compile_benchmark\n"
            "spec = get_benchmark('sewha')\n"
            "gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))\n"
            "res = [run_module(gm, spec.generate_inputs(0), engine=e)\n"
            "       for e in ('reference', 'codegen')]\n"
            "cache = get_cache()\n"
            "print(sorted(cache.hits.items()), res[0].cycles,\n"
            "      res[0].return_value == res[1].return_value\n"
            "      and res[0].globals_after == res[1].globals_after)\n"
        )
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_CACHE=str(cache_dir),
                   PYTHONPATH=src)
        outputs = [subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True).stdout for _ in range(2)]
        first_hits, cycles, agree = outputs[0].rsplit(maxsplit=2)
        second_hits, cycles2, agree2 = outputs[1].rsplit(maxsplit=2)
        # First interpreter: everything generated, nothing served.
        assert first_hits == "[]"
        # Second interpreter: served straight from disk.
        assert second_hits == "[('codegen', 1)]"
        assert cycles == cycles2 and agree == "True" and agree2 == "True"


class TestRobustness:
    def prime(self):
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        cache = get_cache()
        digest = module_digest(fresh_graph_module())
        path = cache.entry_path("codegen", digest)
        assert path.is_file()
        return cache, digest, path

    def test_truncated_entry_is_ignored_and_rewritten(self, cache_dir):
        cache, digest, path = self.prime()
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 3])
        assert cache.load("codegen", digest) is None
        assert cache.corrupt["codegen"] == 1
        # The normal run path regenerates and rewrites the entry...
        result = run_module(fresh_graph_module(), INPUTS,
                            engine="codegen")
        assert cache.stores["codegen"] >= 2
        # ...after which it is a valid hit again.
        assert cache.load("codegen", digest) is not None
        assert result_projection(result) == result_projection(
            run_module(fresh_graph_module(), INPUTS, engine="codegen"))

    def test_garbage_entry_is_ignored(self, cache_dir):
        cache, digest, path = self.prime()
        path.write_bytes(b"not a pickle at all")
        assert cache.load("codegen", digest) is None
        run_module(fresh_graph_module(), INPUTS, engine="codegen")

    def test_version_mismatch_is_a_miss(self, cache_dir):
        cache, digest, path = self.prime()
        entry = pickle.loads(path.read_bytes())
        entry["version"] = FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(entry))
        assert cache.load("codegen", digest) is None

    def test_digest_mismatch_is_a_miss(self, cache_dir):
        cache, digest, path = self.prime()
        other = "0" * len(digest)
        path.rename(cache.entry_path("codegen", other))
        assert cache.load("codegen", other) is None

    def test_corrupted_marshal_blob_falls_back_to_source(self, cache_dir):
        # marshal.loads may hard-crash on damaged bytes, so a blob whose
        # checksum no longer matches must be rejected *before* marshal
        # sees it — the entry still serves via its stored source text.
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        cache = get_cache()
        digest = module_digest(fresh_graph_module())
        path = cache.entry_path("codegen", digest)
        entry = pickle.loads(path.read_bytes())
        blob = entry["payload"]["code"]
        entry["payload"]["code"] = blob[:10] + b"\xff" * 8 + blob[18:]
        path.write_bytes(pickle.dumps(entry))
        warm = run_module(fresh_graph_module(), INPUTS, engine="codegen")
        assert cache.hits["codegen"] == 1  # served (via the source text)
        assert result_projection(warm) == result_projection(
            run_module(fresh_graph_module(), INPUTS, engine="codegen"))

    def test_compiler_source_change_is_a_miss(self, cache_dir,
                                              monkeypatch):
        # Lowered words embed raw opcode numbers assigned by a counter
        # in engine.py, so entries must not survive a compiler edit:
        # the source token partitions the namespace and a changed token
        # simply misses (no manual FORMAT_VERSION bump required).
        cache, digest, path = self.prime()
        monkeypatch.setattr(diskcache, "_source_token_cache",
                            "fedcba987654")
        assert cache.load("codegen", digest) is None
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        assert cache.entry_path("codegen", digest).is_file()

    def test_kind_mismatch_is_a_miss(self, cache_dir):
        cache, digest, path = self.prime()
        path.rename(cache.entry_path(diskcache.RESULT_KIND, digest))
        assert cache.load(diskcache.RESULT_KIND, digest) is None

    def test_concurrent_writers_publish_complete_entries(self, cache_dir):
        cache = DiskCache(cache_dir)
        payload = {"blob": list(range(4096))}
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    assert cache.store("codegen", "k" * 64, payload)
                    loaded = cache.load("codegen", "k" * 64)
                    # A reader racing the writers sees a *complete*
                    # entry (atomic rename), never a torn one.
                    assert loaded == payload
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.load("codegen", "k" * 64) == payload
        assert not list(cache_dir.glob("**/*.tmp"))

    def test_unpicklable_payload_counted_not_raised(self, cache_dir):
        cache = get_cache()
        assert not cache.store("codegen", "x" * 64,
                               {"fn": lambda: None})
        assert cache.failures["codegen"] == 1
        assert cache.load("codegen", "x" * 64) is None

    def test_intrinsic_heavy_benchmarks_are_cacheable(self, cache_dir):
        # dft's sin/cos intrinsics are inlined as function objects in the
        # lowered words and codegen constants; they must pickle (named
        # module-level functions, not lambdas) or the whole benchmark
        # silently loses the disk tier.
        spec = get_benchmark("dft")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        run_module(gm, spec.generate_inputs(0), engine="codegen")
        cache = get_cache()
        assert not cache.failures
        assert dict(cache.stores) == {"codegen": 1}
        gm2, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        warm = run_module(gm2, spec.generate_inputs(0), engine="codegen")
        assert cache.hits["codegen"] == 1
        assert result_projection(warm) == result_projection(
            run_module(gm, spec.generate_inputs(0), engine="codegen"))

    def test_unwritable_directory_never_crashes(self, tmp_path,
                                                monkeypatch):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(blocked))
        diskcache.reset_cache_state()
        result = run_module(fresh_graph_module(), INPUTS,
                            engine="codegen")
        assert result.cycles > 0  # simulation unaffected
        diskcache.reset_cache_state()


def pickled_globals(blob):
    """``(module, name)`` of every global *blob* references, read with
    :mod:`pickletools` without unpickling anything."""
    found, memo, pushed, last = set(), {}, [], None
    for op, arg, _ in pickletools.genops(blob):
        if op.name in ("FRAME", "PROTO", "STOP"):
            continue
        if op.name == "MEMOIZE":
            memo[len(memo)] = last
            continue
        if op.name in ("PUT", "BINPUT", "LONG_BINPUT"):
            memo[arg] = last
            continue
        if op.name in ("GET", "BINGET", "LONG_BINGET"):
            last = memo[arg]
        elif op.name == "STACK_GLOBAL":  # module and name pushed before
            found.add((pushed[-2], pushed[-1]))
            last = None
        elif op.name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
            last = None
        else:
            last = arg if isinstance(arg, str) else None
        pushed.append(last)
    return found


class TestPayloadPickle:
    """What a stored entry needs in order to load.

    The entry namespace is keyed by the source text of
    :data:`~repro.sim.diskcache.SOURCE_TOKEN_MODULES`, so a codegen entry
    may pickle classes only from those modules: a class defined anywhere
    else could change layout under an unchanged key and leave entries
    that one side of the change cannot load.  An optimized entry's key
    folds in :func:`~repro.sim.diskcache.result_source_token`, which
    hashes the whole ``repro`` package, so it may pickle any ``repro``
    class, plus standard-library ones.
    """

    @pytest.mark.parametrize("bench", ["sewha", "pse", "compress"])
    def test_payload_classes_are_covered_by_source_token(self, cache_dir,
                                                         bench):
        spec = get_benchmark(bench)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel.RENAMED)
        run_module(gm, spec.generate_inputs(0), engine="codegen")
        blob = get_cache().entry_path("codegen",
                                      module_digest(gm)).read_bytes()
        refs = pickled_globals(blob)
        assert refs  # the scan sees the lowered-graph class at least
        assert ("repro.ir.values", "VirtualReg") not in refs
        for module, name in refs:
            if module.split(".")[0] != "repro":
                continue
            obj = getattr(importlib.import_module(module), name)
            if isinstance(obj, type):
                assert module in diskcache.SOURCE_TOKEN_MODULES, \
                    (module, name)

    def test_optimized_payload_classes_are_keyed(self, cache_dir):
        from repro.exec.study import optimized_module
        optimized_module("sewha", 1, 2)
        [path] = [path for kind, path in get_cache().entries()
                  if kind == OPTIMIZED_KIND]
        refs = pickled_globals(path.read_bytes())
        assert ("repro.cfg.graph", "GraphModule") in refs
        for module, _name in refs:
            top = module.split(".")[0]
            assert top == "repro" or top in sys.stdlib_module_names, \
                (module, _name)

    def test_scan_finds_every_global(self):
        from repro.ir.values import ArraySymbol, VirtualReg
        value = {"a": [ArraySymbol("x", 3), VirtualReg("r")],
                 "b": (ArraySymbol("y", 1), importlib.import_module,
                       VirtualReg("s"))}
        want = {("repro.ir.values", "ArraySymbol"),
                ("repro.ir.values", "VirtualReg"),
                ("importlib", "import_module")}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickled_globals(pickle.dumps(value, protocol)) >= want


class TestLifecycle:
    def test_none_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        diskcache.reset_cache_state()
        assert resolve_cache_root() is None
        assert get_cache() is None
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        diskcache.reset_cache_state()

    def test_default_root_used_when_unset(self, monkeypatch):
        monkeypatch.delenv(diskcache.CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-probe")
        assert str(resolve_cache_root()) == "/tmp/xdg-probe/repro"

    def test_set_cache_dir_exports_to_environment(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        diskcache.set_cache_dir(str(tmp_path))
        assert os.environ[diskcache.CACHE_ENV_VAR] == str(tmp_path)
        assert resolve_cache_root() == tmp_path
        diskcache.set_cache_dir(None)
        assert resolve_cache_root() is None
        diskcache.reset_cache_state()

    def test_clear_spares_unrelated_directories(self, cache_dir):
        # A cache root pointed at a shared directory: clear() may only
        # touch the cache's own v<digits> layout, never siblings that
        # happen to start with "v".
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        bystander = cache_dir / "vendor"
        bystander.mkdir()
        (bystander / "keep.txt").write_text("precious")
        assert get_cache().clear() == 1
        assert (bystander / "keep.txt").read_text() == "precious"

    def test_entries_and_clear(self, cache_dir):
        for level in (0, 1):
            run_module(fresh_graph_module(level), INPUTS, engine="codegen")
        cache = get_cache()
        kinds = sorted(kind for kind, _ in cache.entries())
        assert kinds == ["codegen", "codegen"]
        assert cache.clear() == 2
        assert list(cache.entries()) == []
        # clearing is idempotent and the tier keeps working afterwards
        assert cache.clear() == 0
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        assert len(list(cache.entries())) == 1

    def test_worker_processes_share_the_cache(self, cache_dir):
        # A jobs=2 study on the codegen engine: pool workers inherit
        # REPRO_CACHE and publish their generated forms, so the
        # parent-side cache directory fills up from worker processes.
        # The persistent pool snapshots the environment when its workers
        # fork, so it is recycled around this test's private directory.
        from repro.exec.pool import shutdown_pool
        from repro.feedback.study import StudyConfig, run_study
        shutdown_pool()
        try:
            run_study(StudyConfig(benchmarks=("sewha", "dft"), jobs=2,
                                  engine="codegen"))
            kinds = {kind for kind, _ in get_cache().entries()}
            assert kinds == {"codegen"}
        finally:
            shutdown_pool()


class TestStaleTmpSweep:
    """Orphaned atomic-write temporaries are reaped by a clear."""

    def plant(self, cache, name="deadbeef0000.orphan.tmp"):
        cache.entry_dir.mkdir(parents=True, exist_ok=True)
        orphan = cache.entry_dir / f".{name}"
        orphan.write_bytes(b"half-written entry")
        return orphan

    def test_clear_reaps_tmp_files_of_any_age(self, cache_dir):
        cache = DiskCache(cache_dir)
        run_module(fresh_graph_module(), INPUTS, engine="codegen")
        live = get_cache()
        self.plant(live)
        assert live.clear() == 2  # one entry + one orphan
        assert not live.tmp_files()
        assert live.tmp_swept == 1
        _ = cache

    def test_sweep_is_idempotent(self, cache_dir):
        cache = DiskCache(cache_dir)
        self.plant(cache)
        assert cache.clear() == 1
        assert cache.clear() == 0
        assert cache.tmp_swept == 1


class TestCounterGuards:
    """unusable()/reject() can never drive the counters negative."""

    def seed_hit(self, cache):
        assert cache.store("codegen", "a" * 64, {"blob": 1})
        assert cache.load("codegen", "a" * 64) is not None

    def test_reject_without_hit_is_a_counted_noop(self, cache_dir):
        cache = DiskCache(cache_dir)
        assert cache.reject("codegen") is False
        assert cache.unusable("codegen") is False
        assert cache.hits["codegen"] == 0
        assert cache.rejected["codegen"] == 0
        assert cache.corrupt["codegen"] == 0

    def test_double_reject_stops_at_zero(self, cache_dir):
        cache = DiskCache(cache_dir)
        self.seed_hit(cache)
        assert cache.reject("codegen") is True
        assert cache.hits["codegen"] == 0
        assert cache.rejected["codegen"] == 1
        assert cache.misses["codegen"] == 1
        # a second reclassification has no hit to convert
        assert cache.reject("codegen") is False
        assert cache.unusable("codegen") is False
        snapshot = cache.stats_snapshot()
        for kind_stats in snapshot["kinds"].values():
            for value in kind_stats.values():
                assert value >= 0

    def test_snapshot_shape_and_nonnegativity(self, cache_dir):
        cache = DiskCache(cache_dir)
        self.seed_hit(cache)
        cache.load("codegen", "0" * 64)  # a miss
        snapshot = cache.stats_snapshot()
        assert snapshot["root"] == str(cache_dir)
        assert set(snapshot["ops"]) == {"hit", "miss", "store"}
        for op_stats in snapshot["ops"].values():
            assert op_stats["count"] >= 1
            assert op_stats["seconds"] >= 0.0
        assert snapshot["tmp_swept"] >= 0


class TestResultTier:
    """The whole-result tier: opt-in, round-trip, invalidation token."""

    def test_off_by_default(self, cache_dir, monkeypatch):
        monkeypatch.delenv(diskcache.RESULT_ENV_VAR, raising=False)
        assert not diskcache.result_cache_enabled()
        for truthy in ("1", "true", "ON", "yes"):
            monkeypatch.setenv(diskcache.RESULT_ENV_VAR, truthy)
            assert diskcache.result_cache_enabled()
        monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "0")
        assert not diskcache.result_cache_enabled()

    def test_source_token_is_stable(self):
        token = diskcache.result_source_token()
        assert token == diskcache.result_source_token()
        assert len(token) == 16
        int(token, 16)  # hex

    def test_run_study_round_trips_through_disk(self, cache_dir,
                                                monkeypatch):
        from repro.feedback.results import study_summary
        from repro.feedback.study import StudyConfig, run_study
        monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "1")
        config = StudyConfig(benchmarks=("sewha",), levels=(0, 1))
        first = run_study(config)
        cache = get_cache()
        assert cache.stores[diskcache.RESULT_KIND] == 1
        # The repeat is served whole from disk: no run_benchmark calls.
        import repro.exec.study as study_mod

        def boom(*_a, **_k):
            raise AssertionError("result-tier hit must not simulate")

        monkeypatch.setattr(study_mod, "run_benchmark", boom)
        second = run_study(config)
        assert cache.hits[diskcache.RESULT_KIND] == 1
        assert study_summary(second) == study_summary(first)
        assert second.config is config  # jobs-twin config swapped in

    def test_jobs_knob_shares_one_result_key(self, cache_dir):
        from repro.feedback.study import StudyConfig, result_request_key
        base = StudyConfig(benchmarks=("sewha",))
        assert result_request_key("study", base) == \
            result_request_key("study", StudyConfig(benchmarks=("sewha",),
                                                    jobs=4))
        assert result_request_key("study", base) != \
            result_request_key("study", StudyConfig(benchmarks=("sewha",),
                                                    seed=1))
        assert result_request_key("study", base) != \
            result_request_key("explore-study", base)


def _walk_instructions(graph_module):
    for graph in graph_module.graphs.values():
        for node in graph.nodes.values():
            for ins in node.all_instructions():
                yield ins
                yield from getattr(ins, "parts", None) or ()


class TestOptimizedTier:
    """The optimized-module tier: ``exec.study.optimized_module`` keeps
    each benchmark's ``(graph_module, report)`` on disk."""

    NAME, LEVEL, UNROLL = "sewha", 1, 2

    def optimized(self):
        from repro.exec.study import optimized_module
        return optimized_module(self.NAME, self.LEVEL, self.UNROLL)

    def entry_path(self):
        spec = get_benchmark(self.NAME)
        return get_cache().entry_path(OPTIMIZED_KIND, optimized_key(
            self.NAME, spec.source, self.LEVEL, self.UNROLL))

    def test_warm_call_skips_front_end_and_optimizer(self, cache_dir,
                                                     monkeypatch):
        import repro.exec.study as study_mod
        import repro.frontend as frontend_mod
        cold_gm, cold_report = self.optimized()
        cache = get_cache()
        assert cache.stores[OPTIMIZED_KIND] == 1

        def refuse(*_args, **_kwargs):
            raise AssertionError(
                "a warm optimized entry must skip compiling and optimizing")
        # The verify-on-load gate optimizes afresh by design, to compare
        # the entry with; only an ungated hit skips the work.
        if not diskcache.verify_on_load():
            monkeypatch.setattr(frontend_mod, "compile_source", refuse)
            monkeypatch.setattr(study_mod, "optimize_module", refuse)
        warm_gm, warm_report = self.optimized()
        assert cache.hits[OPTIMIZED_KIND] == 1
        assert warm_gm is not cold_gm
        assert module_digest(warm_gm) == module_digest(cold_gm)
        assert warm_report == cold_report

    def test_loaded_uids_are_fresh_unique_and_ordered(self, cache_dir):
        from repro.ir.instr import _next_uid
        self.optimized()
        stored_gm = pickle.loads(self.entry_path().read_bytes())[
            "payload"][0]
        stored = [(ins.uid, ins.origin)
                  for ins in _walk_instructions(stored_gm)]
        assert any(uid != origin for uid, origin in stored)  # unrolled
        floor = _next_uid()
        loaded = [(ins.uid, ins.origin)
                  for ins in _walk_instructions(self.optimized()[0])]
        assert len(loaded) == len(stored)
        uids = [uid for uid, _ in loaded]
        assert len(set(uids)) == len(uids)
        assert min(uids) > floor
        # one map, old -> new, covers uids and origins alike: a function,
        # injective and order-preserving
        mapping = {}
        for old_pair, new_pair in zip(stored, loaded):
            for old, new in zip(old_pair, new_pair):
                assert mapping.setdefault(old, new) == new
        assert len(set(mapping.values())) == len(mapping)
        olds = sorted(mapping)
        assert [mapping[old] for old in olds] == sorted(mapping.values())

    def test_key_sensitivity(self):
        source = get_benchmark(self.NAME).source
        key = optimized_key(self.NAME, source, 1, 2)
        assert key == optimized_key(self.NAME, source, 1, 2)
        others = {optimized_key(self.NAME, source, 2, 2),
                  optimized_key(self.NAME, source, 1, 1),
                  optimized_key(self.NAME, source + "\n", 1, 2),
                  optimized_key("dft", source, 1, 2)}
        assert key not in others and len(others) == 4

    @pytest.mark.parametrize("damage", ["truncate", "garble", "shape"])
    def test_damaged_entry_is_a_counted_miss_and_rewritten(
            self, cache_dir, damage):
        cold_gm, _ = self.optimized()
        path = self.entry_path()
        blob = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(blob[:len(blob) // 3])
        elif damage == "garble":
            path.write_bytes(b"not a pickle at all")
        else:  # unpickles cleanly, but is not a (module, report) pair
            entry = pickle.loads(blob)
            entry["payload"] = ("not a module", None)
            path.write_bytes(pickle.dumps(entry))
        gm, _ = self.optimized()
        cache = get_cache()
        assert cache.corrupt[OPTIMIZED_KIND] == 1
        assert cache.hits[OPTIMIZED_KIND] == 0
        assert cache.stores[OPTIMIZED_KIND] == 2
        assert module_digest(gm) == module_digest(cold_gm)
        self.optimized()
        assert cache.hits[OPTIMIZED_KIND] == 1

    def test_disabled_tier_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, DISABLE_VALUE)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        diskcache.reset_cache_state()
        try:
            self.optimized()
            assert get_cache() is None
            assert list(tmp_path.rglob("*")) == []
        finally:
            diskcache.reset_cache_state()

    def test_gate_rejects_an_edited_operand(self, cache_dir, monkeypatch):
        from repro.ir.values import Constant
        fresh = module_digest(self.optimized()[0])
        path = self.entry_path()
        entry = pickle.loads(path.read_bytes())
        ins = next(ins for ins in _walk_instructions(entry["payload"][0])
                   if any(isinstance(src, Constant) and not src.is_float
                          for src in ins.srcs))
        ins.srcs = tuple(Constant(src.value + 1)
                         if isinstance(src, Constant) and not src.is_float
                         else src for src in ins.srcs)
        assert module_digest(entry["payload"][0]) != fresh
        path.write_bytes(pickle.dumps(entry))
        monkeypatch.setenv(diskcache.VERIFY_ENV_VAR, "1")
        diskcache.reset_cache_state()
        served, _ = self.optimized()
        cache = get_cache()
        assert cache.rejected[OPTIMIZED_KIND] == 1
        assert cache.stores[OPTIMIZED_KIND] == 1
        assert module_digest(served) == fresh
        # the re-stored entry serves the fresh module without the gate
        monkeypatch.delenv(diskcache.VERIFY_ENV_VAR)
        diskcache.reset_cache_state()
        assert module_digest(self.optimized()[0]) == fresh
        assert get_cache().hits[OPTIMIZED_KIND] == 1

    def test_cache_scan_reports_garbled_entry(self, cache_dir):
        from repro.analysis.sweep import scan_cache_entries
        self.optimized()
        path = self.entry_path()
        assert scan_cache_entries(get_cache())[:2] == (1, 0)
        entry = pickle.loads(path.read_bytes())
        graph = entry["payload"][0].entry
        next(iter(graph.nodes.values())).succs.append(max(graph.nodes) + 7)
        path.write_bytes(pickle.dumps(entry))
        well, corrupt, details = scan_cache_entries(get_cache())
        assert (well, corrupt) == (0, 1)
        assert any("successors" in detail for detail in details)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_and_warm_studies_agree(self, cache_dir, jobs):
        from repro.exec.pool import shutdown_pool
        from repro.feedback.results import (exploration_payload,
                                            frontier_payload)
        from repro.feedback.study import (ExplorationStudyConfig,
                                          FrontierStudyConfig,
                                          run_exploration_study,
                                          run_frontier_study)
        benchmarks = ("sewha", "iir")
        runs = ((run_exploration_study, exploration_payload,
                 ExplorationStudyConfig(benchmarks=benchmarks,
                                        budgets=(1000, 2500), jobs=jobs)),
                (run_frontier_study, frontier_payload,
                 FrontierStudyConfig(benchmarks=benchmarks, jobs=jobs)))
        # The persistent pool snapshots the environment when its workers
        # fork, so it is recycled around this test's private directory.
        shutdown_pool()
        try:
            for run, payload, config in runs:
                get_cache().clear()
                cold = payload(run(config))
                assert sum(kind == OPTIMIZED_KIND
                           for kind, _ in get_cache().entries()) == 2
                warm = payload(run(config))
                assert warm == cold
        finally:
            shutdown_pool()
        if jobs == 1:  # the tasks ran in this process
            assert get_cache().hits[OPTIMIZED_KIND] >= 2

"""Provenance keys: exploration modules keyed by how they were built.

``exec/study.optimized_module`` stamps its module with a key derived from
the optimized entry's key; resequencing and chain selection derive their
outputs' stamps from their inputs' (``diskcache.derive_stamp``).  A
stamped module's compiled slot and codegen entry are keyed by the stamp,
so it is never walked (``diskcache.content_key``).  These tests hold the
stamps to the walked digests they stand for, and pin where stamps are
made, kept and dropped.
"""

from __future__ import annotations

import pickle

import pytest

from repro.asip.cost import DEFAULT_COST_MODEL
from repro.asip.explore import _isa_for, candidate_pool, frontier_sweep
from repro.asip.resequence import resequence_module, resequence_module_mapped
from repro.asip.select import (ChainMatcher, build_fused, select_chains,
                               site_key)
from repro.chaining.detect import detect_sequences
from repro.exec.study import optimized_module
from repro.feedback.study import FrontierStudyConfig, run_frontier_study
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.codegen import generate_module
from repro.sim.diskcache import (OPTIMIZED_KIND, content_key, derived_key,
                                 get_cache, module_digest, optimized_key)
from repro.sim.machine import run_module
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark
from tests.test_diskcache import cache_dir  # noqa: F401 (fixture)
from tests.test_frontier import frontier_projection


@pytest.fixture
def walks(monkeypatch):
    """Every module :func:`module_digest` walks from here on."""
    walked = []
    real = diskcache.module_digest

    def counting(module):
        walked.append(module)
        return real(module)

    monkeypatch.setattr(diskcache, "module_digest", counting)
    return walked


def _exploration_modules(name: str, level: int):
    """The optimized, resequenced and every frontier chain set's fused
    module of one benchmark, as a frontier task builds them."""
    graph_module, _report = optimized_module(name, level, 2)
    profile = run_module(graph_module,
                         get_benchmark(name).generate_inputs(0)).profile
    pool = candidate_pool(detect_sequences(graph_module, profile, (2, 3)),
                          DEFAULT_COST_MODEL)
    sequential = resequence_module(graph_module)
    matcher = ChainMatcher(sequential)
    fused = [build_fused(sequential, matcher.match(
                 _isa_for(patterns, DEFAULT_COST_MODEL)))
             for patterns in frontier_sweep(pool).pattern_sets()]
    return [graph_module, sequential] + fused


class TestDerivedKeysNameOneProgram:
    def test_one_to_one_with_walked_digests(self):
        """Every benchmark at levels 0/1/2 and every frontier chain set:
        each derived key names one walked digest, everywhere, and within
        a level (one frontier run) no program is filed under two keys."""
        digest_of = {}
        stamps = 0
        for level in (0, 1, 2):
            key_of = {}
            for spec in all_benchmarks():
                for module in _exploration_modules(spec.name, level):
                    key = module.provenance_key
                    assert key is not None, (spec.name, level)
                    digest = module_digest(module)
                    assert digest_of.setdefault(key, digest) == digest, \
                        (spec.name, level)
                    assert key_of.setdefault(digest, key) == key, \
                        (spec.name, level)
                    stamps += 1
        assert len(digest_of) < stamps  # equal chain sets repeat keys

    def test_fused_key_follows_parent_and_sites(self):
        graph_module, _ = optimized_module("sewha", 1, 2)
        assert graph_module.provenance_key == derived_key(
            "optimized", optimized_key(
                "sewha", get_benchmark("sewha").source, 1, 2))
        sequential = resequence_module(graph_module)
        assert sequential.provenance_key == derived_key(
            "resequenced", graph_module.provenance_key)
        isa = _isa_for([("multiply", "add")], DEFAULT_COST_MODEL)
        sites = ChainMatcher(sequential).match(isa)
        assert sites
        fused, _stats = select_chains(sequential, isa)
        assert fused.provenance_key == derived_key(
            "fused", sequential.provenance_key, repr(site_key(sites)))
        assert build_fused(sequential, sites[1:]).provenance_key \
            != fused.provenance_key
        # fusing nothing leaves the program, hence the key, unchanged
        assert build_fused(sequential, ()).provenance_key \
            == sequential.provenance_key


class TestWhereStampsLive:
    def test_pickling_keeps_the_stamp_and_copy_drops_it(self, walks):
        graph_module, _ = optimized_module("sewha", 1, 2)
        clone = pickle.loads(pickle.dumps(graph_module))
        assert clone.provenance_key == graph_module.provenance_key
        assert graph_module.copy().provenance_key is None
        assert "provenance_key" not in graph_module.copy().__dict__
        # a pool worker that receives a stamped module never walks it
        del walks[:]
        generate_module(clone)
        assert walks == []

    def test_unstamped_input_gives_unstamped_output(self):
        graph_module, _ = optimize_module(
            compile_benchmark(get_benchmark("sewha")), OptLevel(1))
        assert graph_module.provenance_key is None
        sequential, _mapping = resequence_module_mapped(graph_module)
        assert sequential.provenance_key is None
        isa = _isa_for([("multiply", "add")], DEFAULT_COST_MODEL)
        fused, _stats = select_chains(sequential, isa)
        assert fused.provenance_key is None
        assert content_key(fused) == module_digest(fused)

    def test_stored_entry_carries_no_stamp(self, cache_dir):
        graph_module, _ = optimized_module("sewha", 1, 2)
        assert graph_module.provenance_key is not None
        path = get_cache().entry_path(OPTIMIZED_KIND, optimized_key(
            "sewha", get_benchmark("sewha").source, 1, 2))
        stored = pickle.loads(path.read_bytes())["payload"][0]
        assert "provenance_key" not in stored.__dict__

    def test_stamped_without_a_disk_tier(self, monkeypatch):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, diskcache.DISABLE_VALUE)
        diskcache.reset_cache_state()
        try:
            graph_module, _ = optimized_module("sewha", 1, 2)
            assert get_cache() is None
            assert graph_module.provenance_key is not None
        finally:
            diskcache.reset_cache_state()

    def test_slot_and_entry_filed_under_the_stamp(self, cache_dir, walks):
        graph_module, _ = optimized_module("sewha", 1, 2)
        fused, _stats = select_chains(
            resequence_module(graph_module),
            _isa_for([("multiply", "add")], DEFAULT_COST_MODEL))
        del walks[:]
        generate_module(fused)
        assert walks == []
        assert fused._compiled[0] == fused.provenance_key
        assert get_cache().entry_path("codegen",
                                      fused.provenance_key).is_file()


class TestWalkCount:
    def test_generation_miss_walks_once(self, cache_dir, walks):
        graph_module, _ = optimize_module(
            compile_benchmark(get_benchmark("fir")), OptLevel(2))
        generate_module(graph_module)
        assert walks == [graph_module]
        assert get_cache().misses["codegen"] == 1

    def test_cold_study_walks_each_module_once(self, cache_dir, walks):
        from repro.feedback.study import StudyConfig, run_study
        run_study(StudyConfig(jobs=1))
        assert get_cache().misses["codegen"] + \
            get_cache().hits["codegen"] == 36
        assert len(walks) == 36
        assert len({id(module) for module in walks}) == 36


class TestVerifiedWarmFrontier:
    def test_gate_accepts_every_derived_key_hit(self, cache_dir,
                                                monkeypatch):
        """A warm frontier under ``REPRO_VERIFY=1``: every codegen entry
        filed under a derived key is compared with a fresh generation of
        the module it is served to, and none differs."""
        config = FrontierStudyConfig(benchmarks=("sewha", "edge"),
                                     max_budget=2500, jobs=1)
        cold = frontier_projection(run_frontier_study(config))
        monkeypatch.setenv(diskcache.VERIFY_ENV_VAR, "1")
        diskcache.reset_cache_state()
        warm = frontier_projection(run_frontier_study(config))
        cache = get_cache()
        assert warm == cold
        assert cache.hits["codegen"] > 0
        assert cache.rejected["codegen"] == 0
        assert cache.rejected[OPTIMIZED_KIND] == 0

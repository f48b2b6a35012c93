"""A compiled module is freed by reference counting alone.

``module._compiled`` holds the module's lowering and generated code, and
nothing in that slot points back at the module: a back-reference would
make every compiled program a reference cycle, so each finalist an
exploration measures and drops would wait for the cycle collector (and
its lowered words and generated code with it).  Each test runs with the
collector disabled and holds only a weak reference once it drops the
module; the module must be gone at once, on every path that fills the
slot: a fresh generation, a disk-cache hit and an evaluated fused
program.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.asip import evaluate
from repro.asip.cost import DEFAULT_COST_MODEL
from repro.asip.explore import _isa_for
from repro.asip.resequence import resequence_module
from repro.asip.select import ChainMatcher
from repro.exec.study import optimized_module
from repro.sim import diskcache
from repro.sim.codegen import GeneratedModule, generate_module
from repro.sim.engine import LoweredModule
from repro.sim.machine import run_module
from tests.test_diskcache import (INPUTS, cache_dir,  # noqa: F401 (fixture)
                                  fresh_graph_module)


@pytest.fixture
def no_collector():
    """The cycle collector stays off for the test's duration."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _slot_refs(module):
    """Weak references to *module* and both parts of its compiled slot."""
    _key, lowered, generated = module._compiled
    assert generated is not None and generated.lowered is lowered
    return [weakref.ref(module), weakref.ref(lowered),
            weakref.ref(generated)]


def test_fresh_generation_is_freed_on_drop(monkeypatch, no_collector):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, diskcache.DISABLE_VALUE)
    diskcache.reset_cache_state()
    try:
        module = fresh_graph_module()
        run_module(module, INPUTS)
        refs = _slot_refs(module)
        del module
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        diskcache.reset_cache_state()


def test_disk_hit_is_freed_on_drop(cache_dir, monkeypatch,  # noqa: F811
                                   no_collector):
    monkeypatch.delenv(diskcache.VERIFY_ENV_VAR, raising=False)
    generate_module(fresh_graph_module())  # stores the entry
    loads = []
    from_payload = GeneratedModule.from_payload
    from_graphs = LoweredModule.from_graphs
    monkeypatch.setattr(GeneratedModule, "from_payload", classmethod(
        lambda cls, *args: loads.append("payload") or from_payload(*args)))
    monkeypatch.setattr(LoweredModule, "from_graphs", classmethod(
        lambda cls, *args: loads.append("graphs") or from_graphs(*args)))
    module = fresh_graph_module()
    run_module(module, INPUTS)
    assert loads == ["payload", "graphs"]
    refs = _slot_refs(module)
    del module
    assert [ref() for ref in refs] == [None, None, None]


def test_evaluated_fused_program_is_freed(monkeypatch, no_collector):
    graph_module, _report = optimized_module("sewha", 1, 2)
    sequential = resequence_module(graph_module)
    isa = _isa_for([("multiply", "add")], DEFAULT_COST_MODEL)
    sites = ChainMatcher(sequential).match(isa)
    assert sites
    built = []
    build_fused = evaluate.build_fused

    def recording(module, sites):
        fused = build_fused(module, sites)
        built.append(weakref.ref(fused))
        return fused

    monkeypatch.setattr(evaluate, "build_fused", recording)
    evaluation, = evaluate.evaluate_on_sequential_batch(
        sequential, isa, [INPUTS], sites=sites)
    assert evaluation.chained_cycles < evaluation.base_cycles
    assert len(built) == 1 and built[0]() is None

"""Levels 1 and 2 finished from one shared optimizer prefix.

``exec/study.optimized_levels`` (what the study matrix runs) builds the
graphs, cleanups, LICM, DCE and loop pipelining once per benchmark, and
compacts a copy of that prefix at level 1 and the prefix itself at
level 2.  Each level must equal an independent ``optimize_module`` on
four things — the module digest, the report, every graph's node and
temp counters (``exec/study._counters``) and the rendered graphs — and
the two levels' modules must share no node or instruction.
"""

import pytest

from repro.exec.study import _counters, _instructions, optimized_levels
from repro.opt.pipeline import OptLevel, optimize_module, optimize_prefix
from repro.sim.diskcache import module_digest
from repro.suite.registry import benchmark_names, get_benchmark
from repro.suite.runner import compile_benchmark

from tests.test_percolation import regen


def _render(graph_module):
    return {name: regen.render_graph(graph)
            for name, graph in graph_module.graphs.items()}


def assert_matches_per_level(module, ctx: str) -> None:
    """Levels 1 and 2 of *module* from :func:`optimized_levels` equal
    independent optimizations and share no node or instruction."""
    shared = dict(optimized_levels(module, (1, 2), 2))
    for level, (gm, report) in shared.items():
        want_gm, want_report = optimize_module(module, level)
        where = f"{ctx} level {int(level)}"
        assert module_digest(gm) == module_digest(want_gm), where
        assert report == want_report, where
        assert _counters(gm) == _counters(want_gm), where
        assert _render(gm) == _render(want_gm), where
    level1, level2 = (shared[level][0] for level in (1, 2))
    for kind, of in (("node", _nodes), ("instruction", _instructions)):
        ids = {id(obj) for obj in of(level1)}
        assert not ids & {id(obj) for obj in of(level2)}, \
            f"{ctx}: levels 1 and 2 share a {kind}"


def _nodes(graph_module):
    return [node for graph in graph_module.graphs.values()
            for node in graph.nodes.values()]


@pytest.mark.parametrize("bench", benchmark_names())
def test_suite_levels_match_independent_optimization(bench):
    assert_matches_per_level(compile_benchmark(get_benchmark(bench)), bench)


def test_level_zero_and_a_single_level_are_unchanged():
    module = compile_benchmark(get_benchmark("fir"))
    for levels in ((0,), (1,), (2,), (0, 2)):
        for level, (gm, report) in optimized_levels(module, levels, 2):
            want_gm, want_report = optimize_module(module, level)
            assert module_digest(gm) == module_digest(want_gm), levels
            assert report == want_report, levels
            assert _counters(gm) == _counters(want_gm), levels


class TestPrefixMisuse:
    def test_a_prefix_finishes_one_level(self):
        module = compile_benchmark(get_benchmark("fir"))
        prefix = optimize_prefix(module)
        optimize_module(module, OptLevel.PIPELINED, prefix=prefix)
        with pytest.raises(ValueError):
            optimize_module(module, OptLevel.RENAMED, prefix=prefix)

    @pytest.mark.parametrize("change", [
        {"level": OptLevel.NONE}, {"unroll_factor": 1},
        {"enable_pipelining": False}, {"enable_licm": False},
        {"module": "other"}])
    def test_prefix_must_match_the_call(self, change):
        module = compile_benchmark(get_benchmark("fir"))
        args = {"module": module, "level": OptLevel.PIPELINED,
                "unroll_factor": 2, "enable_pipelining": True,
                "enable_licm": True}
        if change.get("module") == "other":
            change = {"module": compile_benchmark(get_benchmark("fir"))}
        args.update(change)
        with pytest.raises(ValueError):
            optimize_module(prefix=optimize_prefix(module), **args)

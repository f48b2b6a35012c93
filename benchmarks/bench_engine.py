"""Engine micro-benchmarks: throughput of the toolchain's hot stages.

These are performance benchmarks for the reproduction's own machinery
(front end, simulator, percolation, detector) on a mid-sized benchmark —
the numbers a contributor watches for regressions.
"""

import pytest

from repro.cfg.build import build_module_graphs
from repro.chaining.detect import detect_sequences
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.opt.percolation import compact_graph
from repro.sim.machine import run_module, run_module_batch
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark


@pytest.fixture(scope="module")
def edge_spec():
    return get_benchmark("edge")


@pytest.fixture(scope="module")
def edge_module(edge_spec):
    return compile_benchmark(edge_spec)


@pytest.fixture(scope="module")
def edge_level1(edge_module, edge_spec):
    gm, _ = optimize_module(edge_module, OptLevel.PIPELINED)
    result = run_module(gm, edge_spec.generate_inputs(0))
    return gm, result


def test_frontend_throughput(benchmark, edge_spec):
    module = benchmark(compile_source, edge_spec.source, "edge")
    assert module.total_instructions() > 100


def test_graph_build_throughput(benchmark, edge_module):
    gm = benchmark(build_module_graphs, edge_module)
    assert gm.total_nodes() > 100


def test_compaction_throughput(benchmark, edge_module):
    def compact_fresh():
        gm = build_module_graphs(edge_module)
        for g in gm.graphs.values():
            compact_graph(g)
        return gm

    gm = benchmark(compact_fresh)
    assert any(len(n.ops) > 1 for g in gm.graphs.values()
               for n in g.nodes.values())


def test_simulator_throughput(benchmark, edge_module, edge_spec):
    """Reference interpreter baseline (the pre-engine hot path)."""
    gm = build_module_graphs(edge_module)
    inputs = edge_spec.generate_inputs(0)
    result = benchmark(run_module, gm, inputs, engine="reference")
    assert result.cycles > 10_000


def test_simulator_throughput_codegen(benchmark, edge_module, edge_spec):
    """Codegen engine on the same workload; the ratio against
    ``test_simulator_throughput`` is the engine speedup."""
    gm = build_module_graphs(edge_module)
    inputs = edge_spec.generate_inputs(0)
    run_module(gm, inputs, engine="codegen")  # generate once outside
    result = benchmark(run_module, gm, inputs, engine="codegen")
    assert result.cycles > 10_000


#: Per-benchmark, per-level simulator columns in the bench JSON, so the
#: engine's throughput is recorded at every optimization level, not just
#: on the sequential graphs.
SIM_BENCHES = ("edge", "sewha")
SIM_LEVELS = (0, 1, 2)


def _optimized(name, level):
    spec = get_benchmark(name)
    gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
    return gm, spec.generate_inputs(0)


@pytest.mark.parametrize("level", SIM_LEVELS)
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_codegen(benchmark, name, level):
    gm, inputs = _optimized(name, level)
    run_module(gm, inputs, engine="codegen")
    result = benchmark(run_module, gm, inputs, engine="codegen")
    assert result.cycles > 500


#: Batch width of the multi-seed legs: the seed count of the
#: ``explore-seeds`` workload.
BATCH_SEEDS = tuple(range(8))


def _batch_cell(name, level):
    spec = get_benchmark(name)
    gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
    return gm, [spec.generate_inputs(s) for s in BATCH_SEEDS]


@pytest.mark.parametrize("level", SIM_LEVELS)
@pytest.mark.parametrize("name", SIM_BENCHES)
def test_sim_batch_codegen(benchmark, name, level):
    """Eight seeds through one batch: generation is paid once, each seed
    runs on its own globals and counters."""
    gm, inputs_list = _batch_cell(name, level)
    run_module_batch(gm, inputs_list, engine="codegen")  # generate once
    results = benchmark(run_module_batch, gm, inputs_list,
                        engine="codegen")
    assert len(results) == len(BATCH_SEEDS)


def test_simulator_lowering_cost(benchmark, edge_module):
    """Cost of one cold bytecode lowering (cached on the module,
    stripped and rebuilt per worker at pickle boundaries)."""
    from repro.sim.engine import LoweredModule

    gm = build_module_graphs(edge_module)
    lowered = benchmark(LoweredModule, gm)
    assert lowered.graphs


def test_simulator_codegen_cost(benchmark, edge_module, monkeypatch):
    """Cost of one cold lowering + source generation + compile, with the
    disk cache off (cached under the module's content digest, so a
    study pays it once per module)."""
    from repro.sim.codegen import generate_module

    monkeypatch.setenv("REPRO_CACHE", "none")
    gm = build_module_graphs(edge_module)

    def cold_generate():
        gm.__dict__.pop("_compiled", None)
        return generate_module(gm)

    generated = benchmark(cold_generate)
    assert generated.fns


def _explore_edge(edge_module, edge_spec, engine):
    from repro.asip.explore import explore_designs

    result = explore_designs(edge_module, edge_spec.generate_inputs(0),
                             area_budget=2500, engine=engine)
    assert result.measured
    return result


def test_exploration_end_to_end(benchmark, edge_module, edge_spec):
    """Full design-space exploration on the codegen engine (cached base
    simulation + generated-code reuse across finalists)."""
    result = benchmark.pedantic(
        _explore_edge, args=(edge_module, edge_spec, "codegen"),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.best is not None


def test_exploration_end_to_end_reference(benchmark, edge_module, edge_spec):
    """Same exploration on the reference interpreter, for the ratio."""
    result = benchmark.pedantic(
        _explore_edge, args=(edge_module, edge_spec, "reference"),
        rounds=2, iterations=1)
    assert result.best is not None


def test_detector_throughput(benchmark, edge_level1):
    gm, result = edge_level1
    detection = benchmark(detect_sequences, gm, result.profile,
                          (2, 3, 4, 5))
    assert detection.stats.occurrences_found > 0

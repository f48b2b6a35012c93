"""The optimizer's output, pinned by a committed snapshot.

``tests/golden/optimized_graphs.json`` holds, per benchmark x level 1/2 x
function, the hash of the canonical rendering of the optimized program
graph and the percolation statistics.  Unlike the executor harness's
baseline loop, the expectation does not come from the optimizer under
test, so any change to a schedule fails here.  An intended change is
made by re-running ``tests/golden/regen_optimized_graphs.py`` and
reviewing the diff of the JSON file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen_optimized_graphs.py"
_spec = importlib.util.spec_from_file_location("regen_optimized_graphs",
                                               _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def fresh():
    return regen.snapshot()


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


def test_same_cells(fresh, golden):
    cells = {(b, lv, fn) for b, lvs in golden.items()
             for lv, fns in lvs.items() for fn in fns}
    now = {(b, lv, fn) for b, lvs in fresh.items()
           for lv, fns in lvs.items() for fn in fns}
    assert now == cells


@pytest.mark.parametrize("bench", sorted(
    json.loads(regen.GOLDEN_PATH.read_text())))
def test_optimized_graphs_match_golden(bench, fresh, golden):
    mismatched = [
        f"{bench} level {lv} {fn}: {field}"
        for lv, fns in golden[bench].items()
        for fn, want in fns.items()
        for field in ("sha256", "compaction")
        if fresh[bench][lv].get(fn, {}).get(field) != want[field]
    ]
    assert not mismatched, (
        "optimizer output changed; if intended, re-run "
        "tests/golden/regen_optimized_graphs.py and review the diff: "
        + "; ".join(mismatched))


def test_rendering_is_uid_free():
    from repro.opt.pipeline import OptLevel, optimize_module
    from repro.suite.registry import get_benchmark
    from repro.suite.runner import compile_benchmark
    module = compile_benchmark(get_benchmark("sewha"))
    first, _ = optimize_module(module, OptLevel.RENAMED)
    second, _ = optimize_module(module, OptLevel.RENAMED)
    for name in first.graphs:
        assert regen.render_graph(first.graphs[name]) == \
            regen.render_graph(second.graphs[name])


def test_committed_file_is_canonical(golden):
    assert regen.GOLDEN_PATH.read_text() == regen.dump(golden)

"""The simulator's output, pinned by a committed snapshot.

``tests/golden/run_outputs.json`` holds, per benchmark x level 0/1/2 at
seed 0, the reference engine's cycle count, return value and digests of
the globals and the profile after the run.  The expectation does not
come from the code under test, so any change to what a program computes
or to its profile fails here.  An intended change is made by re-running
``tests/golden/regen_run_outputs.py`` and reviewing the diff of the JSON
file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.sim.machine import DEFAULT_ENGINE

_REGEN = Path(__file__).parent / "golden" / "regen_run_outputs.py"
_spec = importlib.util.spec_from_file_location("regen_run_outputs", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_GOLDEN = json.loads(regen.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module", params=["reference", DEFAULT_ENGINE])
def fresh(request):
    return regen.snapshot(request.param)


def test_same_cells(fresh):
    assert {(b, lv) for b, lvs in fresh.items() for lv in lvs} == \
        {(b, lv) for b, lvs in _GOLDEN.items() for lv in lvs}


@pytest.mark.parametrize("bench", sorted(_GOLDEN))
def test_run_outputs_match_golden(bench, fresh):
    mismatched = [
        f"{bench} level {lv}: {field}"
        for lv, want in _GOLDEN[bench].items()
        for field, value in want.items()
        if fresh[bench].get(lv, {}).get(field) != value
    ]
    assert not mismatched, (
        "simulated outputs changed; if intended, re-run "
        "tests/golden/regen_run_outputs.py and review the diff: "
        + "; ".join(mismatched))


def test_profile_dump_is_order_free():
    from repro.sim.profile import ProfileData
    a, b = ProfileData(), ProfileData()
    for fn, nid in (("main", 3), ("f", 1), ("main", 1)):
        a.count_node(fn, nid)
    for fn, nid in (("main", 1), ("main", 3), ("f", 1)):
        b.count_node(fn, nid)
    a.count_edge("main", 1, 3)
    b.count_edge("main", 1, 3)
    assert list(a.node_counts["main"]) != list(b.node_counts["main"])
    assert json.dumps(regen.profile_dump(a)) == \
        json.dumps(regen.profile_dump(b))


def test_committed_file_is_canonical():
    assert regen.GOLDEN_PATH.read_text() == regen.dump(_GOLDEN)

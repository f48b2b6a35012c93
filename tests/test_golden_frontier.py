"""The frontier sweep's answers, pinned by a committed snapshot.

``tests/golden/frontier.json`` holds, per benchmark at level 1 and seed
0, every segment of the unbounded frontier sweep (breakpoint budget,
ranked candidate patterns, finalist combos), plus the rendered
suite-wide chain table of the ``max_budget=2600`` frontier study.  The
expectation does not come from the code under test, so any change to
where the budget answer changes or to what it is fails here.  An
intended change is made by re-running ``tests/golden/regen_frontier.py``
and reviewing the diff of the JSON file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen_frontier.py"
_spec = importlib.util.spec_from_file_location("regen_frontier", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_GOLDEN = json.loads(regen.GOLDEN_PATH.read_text())
_REGEN_HINT = ("if intended, re-run tests/golden/regen_frontier.py and "
               "review the diff")


@pytest.fixture(scope="module")
def fresh():
    return regen.sweeps()


def test_same_benchmarks(fresh):
    assert sorted(fresh) == sorted(_GOLDEN["sweeps"])


@pytest.mark.parametrize("bench", sorted(_GOLDEN["sweeps"]))
def test_sweep_matches_golden(bench, fresh):
    want = _GOLDEN["sweeps"][bench]
    got = fresh[bench]
    assert got["pool"] == want["pool"], f"{bench} pool changed; {_REGEN_HINT}"
    assert [row[0] for row in got["segments"]] == \
        [row[0] for row in want["segments"]], \
        f"{bench} breakpoints changed; {_REGEN_HINT}"
    assert got["segments"] == want["segments"], \
        f"{bench} segment answers changed; {_REGEN_HINT}"


def test_suite_chain_table_matches_golden(frontier_serial):
    assert frontier_serial.config == regen.SUITE_CONFIG
    assert regen.suite_chain_table(frontier_serial) == \
        _GOLDEN["suite_chains"], f"suite chain table changed; {_REGEN_HINT}"

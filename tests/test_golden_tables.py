"""The paper's rendered tables, pinned by a committed snapshot.

``tests/golden/tables.json`` holds the text of Tables 1-3 rendered from
the default seed-0 study.  The expectation does not come from the code
under test, so any change to a reported frequency, coverage figure or
table layout fails here.  An intended change is made by re-running
``tests/golden/regen_tables.py`` and reviewing the diff of the JSON file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen_tables.py"
_spec = importlib.util.spec_from_file_location("regen_tables", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

_GOLDEN = json.loads(regen.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh():
    return regen.snapshot()


def test_same_tables(fresh):
    assert sorted(fresh) == sorted(_GOLDEN) == ["table1", "table2", "table3"]


@pytest.mark.parametrize("table", sorted(_GOLDEN))
def test_table_matches_golden(table, fresh):
    assert fresh[table] == _GOLDEN[table], (
        f"{table} changed; if intended, re-run tests/golden/regen_tables.py "
        "and review the diff")

"""Regenerate ``tables.json``: the rendered paper tables' golden pin.

The snapshot holds the exact text of Tables 1-3
(:func:`~repro.reporting.tables.table1`, ``table2`` and ``table3``) as
rendered from the default study at seed 0 — the whole suite at levels
0/1/2.  ``tests/test_golden_tables.py`` diffs freshly rendered tables
against the committed file, so any change to what the paper's tables
report fails the suite until this script is re-run and its diff is read.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_tables.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.feedback.study import StudyConfig, run_study
from repro.reporting.tables import table1, table2, table3

GOLDEN_PATH = Path(__file__).with_name("tables.json")
SEED = 0


def snapshot() -> dict:
    """``{"table1": text, "table2": text, "table3": text}`` at seed 0."""
    study = run_study(StudyConfig(seed=SEED))
    return {
        "table1": table1(),
        "table2": table2(study),
        "table3": table3(study),
    }


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(snapshot()))
    print(f"wrote {GOLDEN_PATH}")

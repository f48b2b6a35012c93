"""The code generator's output, pinned by a committed snapshot.

``tests/golden/generated_sources.json`` holds, per benchmark x level
0/1/2, the hash of the Python source the ``codegen`` engine emits for the
optimized module and for its re-sequentialized single-issue form, and
under ``"shapes"`` the hash for each hand-built module that reaches a
word shape the suite never lowers.  A
refactor of the lowered words must leave every hash unchanged; an
intended change to the generated programs is made by re-running
``tests/golden/regen_generated_sources.py`` and reviewing the diff of the
JSON file.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REGEN = Path(__file__).parent / "golden" / "regen_generated_sources.py"
_spec = importlib.util.spec_from_file_location("regen_generated_sources",
                                               _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def fresh():
    return regen.snapshot()


@pytest.fixture(scope="module")
def golden():
    return json.loads(regen.GOLDEN_PATH.read_text())


def _cells(snapshot):
    return {(b, lv, form) for b, lvs in snapshot.items() if b != "shapes"
            for lv, forms in lvs.items() for form in forms}


def test_same_cells(fresh, golden):
    assert _cells(fresh) == _cells(golden)
    assert sorted(fresh["shapes"]) == sorted(golden["shapes"])


@pytest.mark.parametrize("shape", sorted(
    json.loads(regen.GOLDEN_PATH.read_text())["shapes"]))
def test_word_shapes_match_golden(shape, fresh, golden):
    assert fresh["shapes"][shape] == golden["shapes"][shape], (
        f"generated source of the {shape!r} shape module changed; if "
        "intended, re-run tests/golden/regen_generated_sources.py and "
        "review the diff")


@pytest.mark.parametrize("bench", sorted(
    b for b in json.loads(regen.GOLDEN_PATH.read_text()) if b != "shapes"))
def test_generated_sources_match_golden(bench, fresh, golden):
    mismatched = [
        f"{bench} level {lv} {form}"
        for lv, forms in golden[bench].items()
        for form, want in forms.items()
        if fresh[bench][lv].get(form) != want
    ]
    assert not mismatched, (
        "generated source changed; if intended, re-run "
        "tests/golden/regen_generated_sources.py and review the diff: "
        + "; ".join(mismatched))

"""Range checks for the exploration and study knobs.

One definition serves every entry point that takes these knobs: the
``run_*`` study entry points (:mod:`repro.feedback.study`), the serve
daemon's protocol layer and
:func:`~repro.asip.explore.explore_designs`.  Each raises before any
compile, optimization, worker spawn or socket dispatch, naming the knob
the bad value came from.  This module imports nothing but
:mod:`repro.errors`, so the exploration kernel can use it without
loading the study layer.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ReproError

#: Most ranked candidates an exploration keeps: the finalist search
#: enumerates all 2**n - 1 subsets of them (65,535 at 16).
MAX_CANDIDATES_LIMIT = 16

#: Largest loop-unrolling factor: unrolling clones a loop body
#: ``factor - 1`` times.
UNROLL_FACTOR_LIMIT = 8


def validate_knobs(knob: str, lengths: Sequence[int] = (),
                   unroll_factor: int = 1,
                   max_candidates: int = 1,
                   measure_top: int = 0) -> None:
    """Raise :class:`~repro.errors.ReproError` naming the first knob out
    of range; *knob* formats a knob's name for the message (e.g.
    ``"StudyConfig.{}"``)."""
    for length in lengths:
        if length < 2:
            raise ReproError(
                f"{knob.format('lengths')} contains {length}: chains "
                f"have at least two operations")
    if not 1 <= unroll_factor <= UNROLL_FACTOR_LIMIT:
        raise ReproError(
            f"{knob.format('unroll_factor')} is {unroll_factor}: "
            f"expected 1 to {UNROLL_FACTOR_LIMIT}")
    if not 1 <= max_candidates <= MAX_CANDIDATES_LIMIT:
        raise ReproError(
            f"{knob.format('max_candidates')} is {max_candidates}: "
            f"expected 1 to {MAX_CANDIDATES_LIMIT}")
    if measure_top < 0:
        raise ReproError(
            f"{knob.format('measure_top')} is {measure_top}: it must "
            f"not be negative")

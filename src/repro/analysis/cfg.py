"""CFG reconstruction over lowered words.

``lower_module`` emits each graph as a flat list of *words* executed in
list order: a word that is not a control transfer falls through to the
next one, and ``J``/``JB``/``BR`` name their targets by word index.  This
module re-derives the control-flow structure of that artifact —
successors and predecessors — purely from the words, for the range
analysis (:mod:`repro.analysis.ranges`).  It never executes a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.engine import JUMP_SLOTS, TERMINAL_OPS


@dataclass
class WordCFG:
    """The control-flow graph over one graph's words (``lg.words``).

    ``entry`` is ``-1`` for a graph with no (valid) entry word.
    """

    words: List[list]
    succs: List[List[int]]
    preds: List[List[int]]
    entry: int

    @property
    def n(self) -> int:
        return len(self.words)


def word_successors(word: list, i: int) -> List[int]:
    """Successor word indices of *word*, the word at index *i*: its jump
    targets for a control transfer, none for a return or error word, and
    ``i + 1`` for every other word."""
    op = word[0]
    if op not in TERMINAL_OPS:
        return [i + 1]
    return [word[slot] for slot in JUMP_SLOTS.get(op, ())]


def _is_word_index(value, n_words: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and 0 <= value < n_words


def build_word_cfg(lg) -> WordCFG:
    """Reconstruct the CFG over *lg*'s words.

    Successors that are not indices into the word list are dropped, so
    the analysis over a malformed word list degrades instead of crashing.
    """
    words: List[list] = lg.words
    n = len(words)
    succs = [[v for v in word_successors(word, i) if _is_word_index(v, n)]
             for i, word in enumerate(words)]
    preds: List[List[int]] = [[] for _ in words]
    for u, out in enumerate(succs):
        for v in out:
            preds[v].append(u)
    entry = lg.entry_word if _is_word_index(lg.entry_word, n) else -1
    return WordCFG(words=words, succs=succs, preds=preds, entry=entry)

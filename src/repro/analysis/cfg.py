"""CFG reconstruction and invariant checks over lowered words.

``lower_module`` emits each graph as a flat list of *words* executed in
list order: a word that is not a control transfer falls through to the
next one, and ``J``/``JB``/``BR`` name their targets by word index.  This
module re-derives the control-flow structure of that artifact —
successors, predecessors, reachability — purely from the words, and
checks the per-word layout invariants the code generator relies on:

* every word matches its opcode's operand layout (arity and operand kinds);
* register/array slot operands stay inside the frame the plans declare
  (named slots ``1..named``, scratch slots ``-watermark..-1``, array slots
  ``0..n_arrays-1``);
* branch-counter operands index the edge table;
* every jump target and the entry are indices into the word list;
* the last word does not fall through (a missing terminator).

The checks never execute a word; they only read the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.analysis import VerifyResult
from repro.sim import engine as _eng
from repro.sim.engine import JUMP_SLOTS, TERMINAL_OPS

# -- per-opcode operand layouts ----------------------------------------------------
#
# One kind character per operand slot after the opcode:
#   r  register slot (named ``1..named`` or scratch ``-watermark..-1``)
#   k  array slot (``0..n_arrays-1``)
#   e  branch-edge counter index (``0..len(edge_pairs)-1``)
#   c  inline constant (an int or float)
#   n  name string
#   m  message string
#   f  inlined function object
#   x  callee name string
#   D  optional destination register slot (``None`` for void calls)
#   S  intrinsic operand-spec tuple
#   C  call argument-spec tuple
#   W  jump-target word index

_LAYOUTS = {
    _eng.BR: "reWeW", _eng.J: "W", _eng.JB: "W",
    _eng.CP: "rr", _eng.CP2: "rrrr", _eng.TEST: "rr",
    _eng.ADD_RR: "rrr", _eng.ADD_RC: "rrc", _eng.SUB_RR: "rrr",
    _eng.SUB_RC: "rrc", _eng.MUL_RR: "rrr", _eng.MUL_RC: "rrc",
    _eng.LOAD: "rkr", _eng.LOADC: "rkc", _eng.MOV_C: "rc",
    _eng.MOV_R: "rrn",
    _eng.BINF_RR: "rfrr", _eng.BINF_RC: "rfrc", _eng.BINF_CR: "rfcr",
    _eng.BINF_CC: "rfcc",
    _eng.NEG: "rr", _eng.UNF: "rfr", _eng.UNFC: "rfc",
    _eng.ST_RR: "krr", _eng.ST_RC: "krc", _eng.ST_CR: "kcr",
    _eng.ST_CC: "kcc",
    _eng.STD_SS: "krr", _eng.STD_SC: "krc", _eng.STD_CS: "kcr",
    _eng.STD_CC: "kcc",
    _eng.RETREAD: "rrn", _eng.INTRN: "rfS", _eng.CALL: "xDC",
    _eng.RET_R: "rn", _eng.RET_C: "c", _eng.RET_N: "", _eng.RET_S: "r",
    _eng.ERROR: "m",
}


def _is_reg_slot(value, named: int, watermark: int) -> bool:
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    return 1 <= value <= named or -watermark <= value <= -1


def _is_word_index(value, n_words: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and 0 <= value < n_words


def _is_degenerate_br(word: list) -> bool:
    """A single-successor branch: both counter operands share one edge and
    the false leg jumps to the error word emitted right after it."""
    return word[0] == _eng.BR and len(word) == 6 and word[2] == word[4]


# -- per-word layout verification --------------------------------------------------


def verify_words(lg) -> VerifyResult:
    """Check every word of one :class:`_LoweredGraph` against its layout."""
    result = VerifyResult()
    name = getattr(lg, "name", "?")
    named = lg.n_regs - 1 - lg.scratch_watermark
    watermark = lg.scratch_watermark
    n_edges = len(lg.edge_pairs)
    words = lg.words
    n_words = len(words)

    result.check(named >= 0 and watermark >= 0 and lg.n_regs >= 1,
                 "frame-size",
                 f"n_regs={lg.n_regs} watermark={watermark}", name)
    result.check(
        lg.entry_word is None or _is_word_index(lg.entry_word, n_words),
        "entry-ref", f"entry word {lg.entry_word!r} is not an index into "
        f"the word list", name)

    for i, word in enumerate(words):
        where = f"word {i}"
        if not result.check(isinstance(word, list) and len(word) >= 1,
                            "word-shape", f"{where} is not a word", name):
            continue
        op = word[0]
        layout = _LAYOUTS.get(op)
        if not result.check(layout is not None, "unknown-opcode",
                            f"{where} carries unknown opcode {op!r}", name):
            continue
        if not result.check(
                len(word) == len(layout) + 1, "word-arity",
                f"{where} (op {op}) has {len(word) - 1} operands, "
                f"layout {layout!r} wants {len(layout)}", name):
            continue
        for slot, kind in enumerate(layout, start=1):
            value = word[slot]
            if kind == "r":
                result.check(
                    _is_reg_slot(value, named, watermark),
                    "register-slot-range",
                    f"{where} slot {slot}: register slot {value!r} outside "
                    f"[-{watermark}, {named}]", name)
            elif kind == "k":
                result.check(
                    isinstance(value, int) and 0 <= value < lg.n_arrays,
                    "array-slot-range",
                    f"{where} slot {slot}: array slot {value!r} outside "
                    f"[0, {lg.n_arrays})", name)
            elif kind == "e":
                result.check(
                    isinstance(value, int) and 0 <= value < n_edges,
                    "edge-index-range",
                    f"{where} slot {slot}: edge counter {value!r} outside "
                    f"[0, {n_edges})", name)
            elif kind == "W":
                result.check(
                    _is_word_index(value, n_words), "successor-ref",
                    f"{where} slot {slot}: jump target {value!r} is not an "
                    f"index into the word list", name)
            elif kind in ("n", "m", "x"):
                result.check(isinstance(value, str), "name-operand",
                             f"{where} slot {slot}: expected a name string, "
                             f"got {value!r}", name)
            elif kind == "f":
                result.check(callable(value), "function-operand",
                             f"{where} slot {slot}: expected a callable",
                             name)
            elif kind == "D":
                result.check(
                    value is None
                    or _is_reg_slot(value, named, watermark),
                    "register-slot-range",
                    f"{where} slot {slot}: call destination {value!r} is "
                    f"not a register slot", name)
            elif kind == "S":
                result.check(
                    _intrinsic_specs_ok(value, named, watermark),
                    "intrinsic-spec",
                    f"{where} slot {slot}: malformed intrinsic spec "
                    f"{value!r}", name)
            elif kind == "C":
                result.check(
                    _call_specs_ok(value, named, watermark, lg.n_arrays),
                    "call-spec",
                    f"{where} slot {slot}: malformed call argument spec "
                    f"{value!r}", name)
            else:  # kind == "c"
                result.check(isinstance(value, (int, float)),
                             "const-operand",
                             f"{where} slot {slot}: constant operand "
                             f"{value!r} is not a number", name)
        if op == _eng.BR:
            if not _is_degenerate_br(word):
                result.check(word[4] == word[2] + 1, "branch-counter-pair",
                             f"{where}: branch counters ({word[2]}, "
                             f"{word[4]}) are not consecutive edges", name)
            else:
                after = words[i + 1] if i + 1 < n_words else None
                result.check(
                    word[5] == i + 1 and isinstance(after, list)
                    and after[:1] == [_eng.ERROR],
                    "degenerate-branch",
                    f"{where}: single-successor branch false leg must be "
                    f"the error word after it", name)
    last = words[-1] if words else None
    if isinstance(last, list) and last:
        result.check(last[0] in TERMINAL_OPS, "missing-terminator",
                     f"the last word ({n_words - 1}) falls through past "
                     f"the end of the word list", name)
    return result


def _intrinsic_specs_ok(specs, named: int, watermark: int) -> bool:
    if not isinstance(specs, tuple):
        return False
    for spec in specs:
        if not isinstance(spec, tuple) or len(spec) != 2:
            return False
        kind, payload = spec
        if kind == 0:
            if not _is_reg_slot(payload, named, watermark):
                return False
        elif kind == 2:
            if not isinstance(payload, str):
                return False
        elif kind != 1:
            return False
    return True


def _call_specs_ok(specs, named: int, watermark: int, n_arrays: int) -> bool:
    if not isinstance(specs, tuple):
        return False
    for spec in specs:
        if not isinstance(spec, tuple) or len(spec) != 3:
            return False
        kind, payload, extra = spec
        if kind == 0:
            if not _is_reg_slot(payload, named, watermark) \
                    or not isinstance(extra, str):
                return False
        elif kind == 2:
            if not (isinstance(payload, int) and 0 <= payload < n_arrays):
                return False
        elif kind in (3, 4):
            if not isinstance(payload, str):
                return False
        elif kind != 1:
            return False
    return True


# -- CFG reconstruction ------------------------------------------------------------


@dataclass
class WordCFG:
    """The control-flow graph over one graph's words (``lg.words``).

    ``entry`` is ``-1`` for a graph with no (valid) entry word.
    """

    words: List[list]
    succs: List[List[int]]
    preds: List[List[int]]
    entry: int
    reachable: Set[int] = field(default_factory=set)

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


def build_word_cfg(lg) -> WordCFG:
    """Reconstruct the CFG over *lg*'s words.

    Successors that are not indices into the word list are dropped
    (``verify_words`` reports them); the CFG is still built so downstream
    analyses degrade gracefully on a corrupt artifact.
    """
    words: List[list] = lg.words
    n = len(words)
    succs: List[List[int]] = []
    for i, word in enumerate(words):
        out: List[int] = []
        if isinstance(word, list) and word and word[0] in _LAYOUTS \
                and len(word) == len(_LAYOUTS[word[0]]) + 1:
            out = [v for v in word_successors(word, i)
                   if _is_word_index(v, n)]
        succs.append(out)

    preds: List[List[int]] = [[] for _ in words]
    for u, out in enumerate(succs):
        for v in out:
            preds[v].append(u)

    entry = lg.entry_word if _is_word_index(lg.entry_word, n) else -1
    reachable: Set[int] = set()
    if entry >= 0:
        stack = [entry]
        reachable.add(entry)
        while stack:
            u = stack.pop()
            for v in succs[u]:
                if v not in reachable:
                    reachable.add(v)
                    stack.append(v)
    return WordCFG(words=words, succs=succs, preds=preds, entry=entry,
                   reachable=reachable)


def dead_words(lg, cfg: Optional[WordCFG] = None) -> List[int]:
    """Indices of words unreachable from the entry word."""
    if cfg is None:
        cfg = build_word_cfg(lg)
    if cfg.entry < 0:
        return list(range(len(lg.words)))
    return [i for i in range(len(lg.words)) if i not in cfg.reachable]

"""Value-range abstract interpretation for static out-of-bounds detection.

An interval-domain abstract interpreter over the lowered word CFG
(:func:`repro.analysis.cfg.build_word_cfg`).  Per register slot the domain
tracks *defined-integer intervals*: an environment entry ``slot -> (lo, hi)``
claims the register holds a defined ``int`` (or ``bool``) value within the
closed interval — ``None`` on either side means unbounded.  An absent entry
is top (any value, possibly ``_UNDEF`` or a float).

The analysis runs the classic Cousot widening/narrowing recipe: a worklist
fixpoint in reverse postorder with widening (threshold 0) at the targets of
retreating edges, followed by one narrowing sweep.  Branch conditions are
refined on both edges of a compare-and-branch by resolving the condition
register back to its defining comparison word through unmodified copy
chains.  Calls keep the caller's register facts (frames are private) and
bound the destination with a callee return summary when one is available;
everything else about a callee is conservatively top.

Global scalars (size-1 global arrays carrying an initializer) that no word
in the whole module can ever write become *premises*: the analysis assumes
their initializer value and records which premises each result used.
Inputs may override any global at run time, so the results describe runs
on the program's own initial data.

From the fixpoint every subscripted load/store gets a :class:`BoundsProof`
classifying it SAFE / UNSAFE / UNKNOWN against the array's length.  The
classifications feed ``repro verify``, which fails on any
definite UNSAFE access without running the program.  No engine consumes
them: the generated code keeps every bounds guard.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import build_word_cfg, word_successors
from repro.sim import engine as _eng
from repro.sim.engine import (BIN, BR, CALL, ERROR, INTRN, J, JB, LOAD, MOV,
                              RET, ST, TERMINAL_OPS, TEST, UN,
                              decode_operand)
from repro.sim.values import int_div, int_mod, shift_left, shift_right

# -- the interval domain -----------------------------------------------------------

#: ``(lo, hi)`` with ``None`` = unbounded on that side.
TOP = (None, None)


def _join_iv(a: Tuple, b: Tuple) -> Tuple:
    lo = min(a[0], b[0]) if (a[0] is not None and b[0] is not None) \
        else None
    hi = max(a[1], b[1]) if (a[1] is not None and b[1] is not None) \
        else None
    return (lo, hi)


def _meet_iv(a: Tuple, b: Tuple) -> Optional[Tuple]:
    """Intersection; ``None`` when empty (the edge is dead)."""
    lo = a[0] if b[0] is None else (b[0] if a[0] is None
                                    else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None
                                    else min(a[1], b[1]))
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def _widen_iv(old: Tuple, new: Tuple) -> Tuple:
    """Standard widening with a single threshold at 0."""
    if old[0] is None or new[0] is None:
        lo = None
    elif new[0] >= old[0]:
        lo = old[0]
    else:
        lo = 0 if new[0] >= 0 else None
    if old[1] is None or new[1] is None:
        hi = None
    elif new[1] <= old[1]:
        hi = old[1]
    else:
        hi = None
    return (lo, hi)


def _within(inner: Tuple, outer: Tuple) -> bool:
    """``inner`` interval contained in ``outer``."""
    if outer[0] is not None and (inner[0] is None or inner[0] < outer[0]):
        return False
    if outer[1] is not None and (inner[1] is None or inner[1] > outer[1]):
        return False
    return True


def _add_iv(a: Tuple, b: Tuple) -> Tuple:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def _sub_iv(a: Tuple, b: Tuple) -> Tuple:
    lo = None if a[0] is None or b[1] is None else a[0] - b[1]
    hi = None if a[1] is None or b[0] is None else a[1] - b[0]
    return (lo, hi)


def _neg_iv(a: Tuple) -> Tuple:
    lo = None if a[1] is None else -a[1]
    hi = None if a[0] is None else -a[0]
    return (lo, hi)


def _mul_iv(a: Tuple, b: Tuple) -> Tuple:
    if None in a or None in b:
        return TOP
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _int_const(value) -> Optional[int]:
    """The premise-grade integer of an inline constant (bools count)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    return None


# -- word decoding -----------------------------------------------------------------

#: Infix binary operations with interval transfer: symbol -> fn.
_ARITH = {"+": _add_iv, "-": _sub_iv, "*": _mul_iv}

#: Comparison function objects (recognized by identity) -> predicate tag.
_CMP_TAG = {
    _eng._cmp_eq: "eq", _eng._cmp_ne: "ne",
    _eng._cmp_lt: "lt", _eng._cmp_le: "le",
    _eng._cmp_gt: "gt", _eng._cmp_ge: "ge",
}

#: Negated predicate tag on the false edge.
_NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
           "le": "gt", "gt": "le"}

#: Function objects that return an ``int`` whenever they return at all
#: (a non-int operand raises instead of producing a value).
_INT_OR_RAISE = (operator.and_, operator.or_, operator.xor,
                 shift_left, shift_right, int, operator.invert)


def _word_reg_writes(word: list) -> Tuple[int, ...]:
    """Register slots a word writes."""
    op = word[0]
    if op in (BR, J, JB, ERROR, RET, ST):
        return ()
    if op == CALL:
        return () if word[2] is None else (word[2],)
    return (word[1],)


def _access_of(word: list) -> Optional[Tuple[str, int, str, object]]:
    """``(kind, array_slot, index_kind, index_payload)`` of a subscripted
    access word, or ``None``.  ``kind`` is ``"load"``/``"store"``;
    ``index_kind`` is ``"r"`` (register slot) or ``"c"`` (constant)."""
    op = word[0]
    if op == LOAD:
        return ("load", word[2]) + decode_operand(word[3])[:2]
    if op == ST:
        return ("store", word[1]) + decode_operand(word[2])[:2]
    return None


# -- per-graph analysis context ----------------------------------------------------


class _Ctx:
    """Facts a graph's transfer function consults."""

    __slots__ = ("lengths", "scalar_slots", "summaries", "used_premises")

    def __init__(self, lengths: Dict[int, Optional[int]],
                 scalar_slots: Dict[int, Tuple[str, int]],
                 summaries: Dict[str, Tuple]):
        self.lengths = lengths
        self.scalar_slots = scalar_slots
        self.summaries = summaries
        self.used_premises: Set[str] = set()


def _iv_of(env: Dict[int, Tuple], kind: str, payload) -> Optional[Tuple]:
    """Defined-int interval of a decoded operand, or ``None`` (top /
    non-int)."""
    if kind == "r":
        return env.get(payload)
    c = _int_const(payload)
    return None if c is None else (c, c)


def _operand_iv(env: Dict[int, Tuple], operand) -> Optional[Tuple]:
    return _iv_of(env, *decode_operand(operand)[:2])


def _set(out: Dict[int, Tuple], slot: int, iv: Optional[Tuple]) -> None:
    if iv is not None:
        out[slot] = iv
    else:
        out.pop(slot, None)


def _transfer(word: list, env: Dict[int, Tuple], ctx: _Ctx
              ) -> Dict[int, Tuple]:
    """Environment after one non-branch word (input env is not mutated)."""
    op = word[0]
    out = dict(env)
    if op == BIN:
        fn = word[2]
        a = _operand_iv(env, word[3])
        b = _operand_iv(env, word[4])
        if isinstance(fn, str):
            _set(out, word[1], None if a is None or b is None
                 else _ARITH[fn](a, b))
            return out
        out.pop(word[1], None)
        if _CMP_TAG.get(fn) is not None:
            out[word[1]] = (0, 1)
            return out
        if fn in (int_div, int_mod):
            if a is not None and b is not None:
                iv = (None, None)
                if fn is int_mod and b[0] is not None and b[0] > 0 \
                        and b[1] is not None and a[0] is not None \
                        and a[0] >= 0:
                    iv = (0, b[1] - 1)
                out[word[1]] = iv
            return out
        if fn in _INT_OR_RAISE:
            iv = (None, None)
            if a is not None and b is not None \
                    and a[0] is not None and a[0] >= 0 \
                    and b[0] is not None and b[0] >= 0:
                if fn is operator.and_:
                    iv = (0, a[1] if b[1] is None or (
                        a[1] is not None and a[1] <= b[1]) else b[1])
                elif fn in (operator.or_, operator.xor):
                    hi = None if a[1] is None or b[1] is None \
                        else a[1] + b[1]
                    iv = (0, hi)
                elif fn is shift_right and a[1] is not None:
                    iv = (0, a[1] >> max(b[0], 0))
            out[word[1]] = iv
        return out
    if op == LOAD:
        out.pop(word[1], None)
        premise = ctx.scalar_slots.get(word[2])
        if premise is not None and _operand_iv(env, word[3]) == (0, 0):
            gname, value = premise
            ctx.used_premises.add(gname)
            out[word[1]] = (value, value)
        return out
    if op == MOV:
        _set(out, word[1], _operand_iv(env, word[2]))
        return out
    if op == TEST:
        out[word[1]] = (0, 1)
        return out
    if op == UN:
        fn = word[2]
        if fn == "-":
            iv = env.get(word[3])
            _set(out, word[1], None if iv is None else _neg_iv(iv))
        elif fn in (int, operator.invert):
            out[word[1]] = (None, None)
        else:
            out.pop(word[1], None)
        return out
    if op == INTRN:
        out.pop(word[1], None)
        return out
    if op == CALL:
        if word[2] is not None:
            summary = ctx.summaries.get(word[1])
            _set(out, word[2], None if summary == TOP else summary)
        return out
    return out


# -- branch predicates -------------------------------------------------------------


def _branch_predicate(words: List[list], preds: List[List[int]],
                      br_idx: int) -> Optional[Tuple]:
    """Resolve a BR's condition to ``("cmp", tag, aspec, bspec)`` or
    ``("truth", slot)``, following single-predecessor copy chains.

    A spec is ``("r", slot)`` or ``("c", value)``.  The predicate is only
    returned when no word between the defining comparison and the branch
    redefines any operand register, so the operand facts in the branch's
    environment still describe the compared values.
    """
    target = words[br_idx][1]
    cur = br_idx
    path: List[int] = []
    seen: Set[int] = set()
    pred: Optional[Tuple] = None
    for _ in range(256):
        ps = preds[cur]
        if len(ps) != 1 or ps[0] in seen:
            return None
        cur = ps[0]
        seen.add(cur)
        word = words[cur]
        writes = _word_reg_writes(word)
        if target not in writes:
            path.append(cur)
            continue
        op = word[0]
        if op == MOV:
            kind, slot, name = decode_operand(word[2])
            if kind == "r" and name is None:
                # an unchecked copy: regs[target] = regs[slot]
                target = slot
                path.append(cur)
                continue
        if op == TEST:
            # regs[target] = regs[c] != 0: same truth value as regs[c].
            target = word[2]
            pred = ("truth", target)
            path.append(cur)
            continue
        if op == BIN and not isinstance(word[2], str):
            tag = _CMP_TAG.get(word[2])
            if tag is None:
                return None
            aspec = decode_operand(word[3])[:2]
            bspec = decode_operand(word[4])[:2]
            protected = {spec[1] for spec in (aspec, bspec)
                         if spec[0] == "r"}
            for j in path:
                if protected.intersection(_word_reg_writes(words[j])):
                    return None
            return ("cmp", tag, aspec, bspec)
        return pred if pred is not None and _usable_truth(
            pred, path, words) else None
    return None


def _usable_truth(pred: Tuple, path: List[int],
                  words: List[list]) -> bool:
    slot = pred[1]
    return not any(slot in _word_reg_writes(words[j]) for j in path)


def _refine(env: Dict[int, Tuple], pred: Optional[Tuple],
            taken: bool) -> Optional[Dict[int, Tuple]]:
    """Environment on one edge of a branch; ``None`` = edge is dead.

    Refinement only ever *narrows* existing defined-int entries — a top
    register stays top (a comparison cannot establish integer-ness).
    """
    if pred is None:
        return env
    if pred[0] == "truth":
        slot = pred[1]
        iv = env.get(slot)
        if iv is None:
            return env
        if taken:
            # Exclude 0: shrink an endpoint that sits exactly on it.
            new = iv
            if iv == (0, 0):
                return None
            if iv[0] == 0:
                new = (1, iv[1])
            elif iv[1] == 0:
                new = (iv[0], -1)
            out = dict(env)
            out[slot] = new
            return out
        narrowed = _meet_iv(iv, (0, 0))
        if narrowed is None:
            return None
        out = dict(env)
        out[slot] = narrowed
        return out
    _, tag, aspec, bspec = pred
    if not taken:
        tag = _NEGATE[tag]
    a = _iv_of(env, aspec[0], aspec[1])
    b = _iv_of(env, bspec[0], bspec[1])
    out = dict(env)
    dead = False

    def narrow(spec, bound: Tuple) -> None:
        nonlocal dead
        if spec[0] != "r":
            return
        iv = out.get(spec[1])
        if iv is None:
            return  # top stays top: int-ness is not established here
        narrowed = _meet_iv(iv, bound)
        if narrowed is None:
            dead = True
        else:
            out[spec[1]] = narrowed

    if tag == "eq":
        if b is not None:
            narrow(aspec, b)
        if a is not None:
            narrow(bspec, a)
    elif tag == "ne":
        for spec, other in ((aspec, b), (bspec, a)):
            if other is None or other[0] is None \
                    or other[0] != other[1]:
                continue
            k = other[0]
            iv = out.get(spec[1]) if spec[0] == "r" else None
            if iv is None:
                continue
            if iv[0] is not None and iv[0] == k:
                narrow(spec, (k + 1, None))
            elif iv[1] is not None and iv[1] == k:
                narrow(spec, (None, k - 1))
            elif iv == (k, k):
                dead = True
    elif tag in ("lt", "le"):
        shift = 1 if tag == "lt" else 0
        if b is not None and b[1] is not None:
            narrow(aspec, (None, b[1] - shift))
        if a is not None and a[0] is not None:
            narrow(bspec, (a[0] + shift, None))
    else:  # gt / ge
        shift = 1 if tag == "gt" else 0
        if b is not None and b[0] is not None:
            narrow(aspec, (b[0] + shift, None))
        if a is not None and a[1] is not None:
            narrow(bspec, (None, a[1] - shift))
    return None if dead else out


# -- proofs ------------------------------------------------------------------------

SAFE = "SAFE"
UNSAFE = "UNSAFE"
UNKNOWN = "UNKNOWN"


class BoundsProof:
    """Classification of one subscripted access word."""

    __slots__ = ("word_index", "kind", "array", "array_slot",
                 "index_interval", "length", "classification")

    def __init__(self, word_index: int, kind: str, array: Optional[str],
                 array_slot: int, index_interval: Optional[Tuple],
                 length: Optional[int], classification: str):
        self.word_index = word_index
        self.kind = kind
        self.array = array
        self.array_slot = array_slot
        self.index_interval = index_interval
        self.length = length
        self.classification = classification

    def __repr__(self) -> str:
        return (f"<BoundsProof {self.classification} {self.kind} "
                f"{self.array}[{self.index_interval}] len={self.length}>")


def _classify(index: Optional[Tuple], length: Optional[int]) -> str:
    if index is None or length is None:
        return UNKNOWN
    lo, hi = index
    if lo is not None and hi is not None and 0 <= lo and hi < length:
        return SAFE
    if (hi is not None and hi < 0) or (lo is not None and lo >= length):
        return UNSAFE
    return UNKNOWN


def array_lengths(lg, module) -> Dict[int, Optional[int]]:
    """Array slot -> length, resolved against the *live* module.

    Local arrays resolve by name through the live graph's symbol list and
    globals through ``module.global_arrays``, so a tampered payload plan
    cannot inflate a length; parameter and missing-array slots have no
    known length and can never prove anything.
    """
    live = module.graphs.get(lg.name)
    local_sizes = {} if live is None else {
        arr.name: arr.size for arr in live.local_arrays}
    lengths: Dict[int, Optional[int]] = {}
    for slot, symbol in lg.local_plan:
        lengths[slot] = local_sizes.get(symbol.name)
    for slot, gname in lg.global_plan:
        symbol = module.global_arrays.get(gname)
        lengths[slot] = None if symbol is None else symbol.size
    return lengths


def _array_names(lg) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for _is_reg, slot, pname in lg.param_plan:
        if not _is_reg:
            names[slot] = pname
    for slot, symbol in lg.local_plan:
        names[slot] = symbol.name
    for slot, gname in lg.global_plan:
        names[slot] = gname
    for slot, placeholder in lg.missing_plan:
        names[slot] = getattr(placeholder, "name", "?")
    return names


# -- premises ----------------------------------------------------------------------


def stable_global_scalars(module, graphs) -> Dict[str, int]:
    """Global scalars provably constant for any run of *graphs*.

    A global scalar qualifies when it is a size-1 non-float global array
    with an integer initializer and no word in any graph can reach its
    storage for writing: no store targets its slot and no call passes it
    as an array argument (the only way a callee frame could alias it).
    """
    candidates: Dict[str, int] = {}
    for name, spec in module.global_scalars.items():
        is_float, value = spec[0], spec[1]
        symbol = module.global_arrays.get(name)
        c = _int_const(value)
        if not is_float and c is not None and symbol is not None \
                and symbol.size == 1 and not symbol.is_float:
            candidates[name] = c
    if not candidates:
        return {}
    for lg in graphs.values():
        global_of = dict(lg.global_plan)
        for word in lg.words:
            acc = _access_of(word)
            if acc is not None and acc[0] == "store":
                gname = global_of.get(acc[1])
                if gname is not None:
                    candidates.pop(gname, None)
                continue
            if word[0] == CALL:
                for spec in word[3]:
                    if spec[0] == 2:
                        gname = global_of.get(spec[1])
                        if gname is not None:
                            candidates.pop(gname, None)
        if not candidates:
            return {}
    return candidates


# -- the fixpoint ------------------------------------------------------------------


class GraphRanges:
    """Analysis result for one lowered graph."""

    __slots__ = ("name", "proofs", "ret_interval", "used_premises")

    def __init__(self, name: str, proofs: List[BoundsProof],
                 ret_interval: Tuple, used_premises: Set[str]):
        self.name = name
        self.proofs = proofs
        self.ret_interval = ret_interval
        self.used_premises = used_premises


def _join_env(a: Dict[int, Tuple], b: Dict[int, Tuple]) -> Dict[int, Tuple]:
    out: Dict[int, Tuple] = {}
    for slot, iv in a.items():
        other = b.get(slot)
        if other is not None:
            out[slot] = _join_iv(iv, other)
    return out


def _env_leq(a: Dict[int, Tuple], b: Dict[int, Tuple]) -> bool:
    """``a`` at least as precise as ``b`` (every claim of b holds in a)."""
    for slot, iv in b.items():
        mine = a.get(slot)
        if mine is None or not _within(mine, iv):
            return False
    return True


def _flow(words: List[list], idx: int, env: Dict[int, Tuple], ctx: _Ctx,
          predicates: Dict[int, Optional[Tuple]]
          ) -> List[Tuple[int, Optional[Dict[int, Tuple]]]]:
    """``(successor index, env)`` pairs out of one word; a ``None`` env
    marks a refinement-dead edge."""
    word = words[idx]
    if word[0] == BR:
        pred = predicates.get(idx)
        return [(word[3], _refine(env, pred, True)),
                (word[5], _refine(env, pred, False))]
    out = env if word[0] in TERMINAL_OPS else _transfer(word, env, ctx)
    return [(succ, out) for succ in word_successors(word, idx)]


def _rpo(n: int, succs: List[List[int]], entry: int) -> List[int]:
    order: List[int] = []
    seen = [False] * n
    stack: List[Tuple[int, int]] = [(entry, 0)]
    seen[entry] = True
    while stack:
        node, i = stack.pop()
        if i < len(succs[node]):
            stack.append((node, i + 1))
            nxt = succs[node][i]
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, 0))
        else:
            order.append(node)
    order.reverse()
    return order


def analyze_graph(lg, module, scalar_values: Dict[str, int],
                  summaries: Dict[str, Tuple]) -> GraphRanges:
    """Run the interval fixpoint over one lowered graph."""
    cfg = build_word_cfg(lg)
    words = cfg.words
    lengths = array_lengths(lg, module)
    global_of = dict(lg.global_plan)
    scalar_slots = {slot: (gname, scalar_values[gname])
                    for slot, gname in lg.global_plan
                    if gname in scalar_values}
    ctx = _Ctx(lengths, scalar_slots, summaries)

    empty = GraphRanges(lg.name, [], TOP, set())
    if cfg.entry < 0:
        return empty

    order = _rpo(cfg.n, cfg.succs, cfg.entry)
    rpo_num = {idx: i for i, idx in enumerate(order)}
    widen_at = {v for u in order for v in cfg.succs[u]
                if v in rpo_num and rpo_num[v] <= rpo_num[u]}

    predicates: Dict[int, Optional[Tuple]] = {}
    for i in order:
        if words[i][0] == BR:
            predicates[i] = _branch_predicate(words, cfg.preds, i)

    in_env: Dict[int, Dict[int, Tuple]] = {cfg.entry: {}}
    work = deque(sorted(in_env, key=rpo_num.get))
    queued = set(work)
    steps = 0
    limit = 64 * (cfg.n + 1)
    while work and steps < limit:
        steps += 1
        u = work.popleft()
        queued.discard(u)
        for v, env_v in _flow(words, u, in_env[u], ctx, predicates):
            if env_v is None or v not in rpo_num:
                continue
            cur = in_env.get(v)
            if cur is None:
                joined = dict(env_v)
            else:
                joined = _join_env(cur, env_v)
                if v in widen_at:
                    joined = {slot: _widen_iv(cur[slot], iv)
                              for slot, iv in joined.items()}
            if cur is not None and _env_leq(cur, joined) \
                    and _env_leq(joined, cur):
                continue
            in_env[v] = joined
            if v not in queued:
                queued.add(v)
                work.append(v)
    if steps >= limit:
        # Paranoia backstop: a fixpoint that refuses to stabilize yields
        # no facts rather than wrong ones.
        return empty

    # One narrowing sweep: recompute each environment from its
    # predecessors without widening.  The pre-narrowing state is a
    # post-fixpoint, so one decreasing application stays inductive.
    for v in order:
        if v == cfg.entry:
            continue
        incoming: Optional[Dict[int, Tuple]] = None
        for u in cfg.preds[v]:
            if u not in in_env:
                continue
            for tgt, env_v in _flow(words, u, in_env[u], ctx,
                                    predicates):
                if tgt != v or env_v is None:
                    continue
                incoming = dict(env_v) if incoming is None \
                    else _join_env(incoming, env_v)
        if incoming is not None and v in in_env:
            in_env[v] = incoming

    names = _array_names(lg)
    proofs: List[BoundsProof] = []
    for i, word in enumerate(words):
        if i not in in_env:
            continue
        acc = _access_of(word)
        if acc is None:
            continue
        kind, array_slot, ikind, payload = acc
        index = _iv_of(in_env[i], ikind, payload)
        length = lengths.get(array_slot)
        proofs.append(BoundsProof(i, kind, names.get(array_slot),
                                  array_slot, index, length,
                                  _classify(index, length)))

    ret = None
    for i, word in enumerate(words):
        if i not in in_env:
            continue
        if word[0] != RET:
            continue
        iv = None if word[1] is None else _operand_iv(in_env[i], word[1])
        iv = TOP if iv is None else iv
        ret = iv if ret is None else _join_iv(ret, iv)
    if ret is None:
        ret = TOP

    return GraphRanges(lg.name, proofs, ret, set(ctx.used_premises))


class ModuleRanges:
    """Analysis results for every graph of one module."""

    __slots__ = ("graphs", "premises")

    def __init__(self, graphs: Dict[str, GraphRanges],
                 premises: Dict[str, int]):
        self.graphs = graphs
        self.premises = premises

    def counts(self) -> Dict[str, int]:
        tally = {SAFE: 0, UNSAFE: 0, UNKNOWN: 0}
        for granges in self.graphs.values():
            for proof in granges.proofs:
                tally[proof.classification] += 1
        return tally

    def unsafe_accesses(self) -> List[Tuple[str, BoundsProof]]:
        out = []
        for name, granges in self.graphs.items():
            out.extend((name, proof) for proof in granges.proofs
                       if proof.classification == UNSAFE)
        return out


def _call_order(graphs) -> List[str]:
    """Graph names, callees before callers where the call graph allows
    (members of call cycles keep their original order and see top
    summaries for in-cycle callees)."""
    callees: Dict[str, Set[str]] = {}
    for name, lg in graphs.items():
        out: Set[str] = set()
        for word in lg.words:
            if word[0] == CALL and word[1] in graphs:
                out.add(word[1])
        callees[name] = out
    order: List[str] = []
    placed: Set[str] = set()
    pending = list(graphs)
    while pending:
        progressed = False
        remaining = []
        for name in pending:
            if callees[name] <= placed | {name}:
                order.append(name)
                placed.add(name)
                progressed = True
            else:
                remaining.append(name)
        if not progressed:
            order.extend(remaining)  # cycle: analyzed with top summaries
            break
        pending = remaining
    return order


def analyze_lowered(module, lowered) -> ModuleRanges:
    """Analyze every graph of an already-lowered module."""
    graphs = lowered.graphs
    stable = stable_global_scalars(module, graphs)
    summaries: Dict[str, Tuple] = {}
    results: Dict[str, GraphRanges] = {}
    for name in _call_order(graphs):
        granges = analyze_graph(graphs[name], module, stable, summaries)
        results[name] = granges
        summaries[name] = granges.ret_interval
    used: Set[str] = set()
    for granges in results.values():
        used.update(granges.used_premises)
    premises = {name: stable[name] for name in sorted(used)}
    ordered = {name: results[name] for name in graphs}
    return ModuleRanges(ordered, premises)


def analyze_module(module) -> ModuleRanges:
    """Lower *module* (cached) and run the range analysis."""
    from repro.sim.engine import lower_module
    return analyze_lowered(module, lower_module(module))

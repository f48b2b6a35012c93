"""Regenerate ``generated_sources.json``: the code generator's golden pin.

For every suite benchmark at optimization levels 0, 1 and 2, the snapshot
lowers two modules -- the optimized one and its re-sequentialized
single-issue form (:func:`~repro.asip.resequence.resequence_module`, the
base every ASIP design is measured on) -- and records the sha256 of the
Python source :func:`~repro.sim.codegen.emit_sources` emits for each, one
graph source after another.  ``tests/test_golden_generated_sources.py``
diffs a fresh snapshot against the committed file, so a change to the
lowered words that is meant to be internal (a different word layout, a
different way of naming jump targets) must leave the generated programs
byte-identical, and any change to what the engine runs fails the suite
until this script is re-run and its diff is read.

The suite never lowers some word shapes: error words, intrinsics over
constant operands, a return read ahead of a node's commits, deferred
stores of constants and registers, and the operands the emitter's inline
forms must match their functions on (NaN, infinities and ``-0.0``
compared, values of the other kind stored, negative and zero constant
shift amounts and divisors, stores out of bounds and into parameter
arrays).  Small hand-built modules (:func:`shape_modules`) reach each of
them, and their hashes sit under the ``"shapes"`` key.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_generated_sources.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.asip.resequence import resequence_module
from repro.cfg.graph import GraphModule, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.codegen import emit_sources
from repro.sim.engine import lower_module
from repro.suite.registry import all_benchmarks
from repro.suite.runner import compile_benchmark

GOLDEN_PATH = Path(__file__).with_name("generated_sources.json")
LEVELS = (OptLevel.NONE, OptLevel.PIPELINED, OptLevel.RENAMED)


def source_sha(module: GraphModule) -> str:
    """sha256 of every graph's generated source, in graph order."""
    sources, _consts = emit_sources(lower_module(module))
    return hashlib.sha256("\n".join(sources).encode()).hexdigest()


def _ins(op: Op, dest=None, *srcs, **kw) -> Instruction:
    return Instruction(op, dest=dest, srcs=tuple(srcs), **kw)


def _line(graph: ProgramGraph, *blocks) -> list:
    """One node per ``(ops, control)`` block, each falling into the next;
    the graph's first block is its entry."""
    nodes = []
    for ops, control in blocks:
        node = graph.new_node()
        node.ops = list(ops)
        node.control = control
        nodes.append(node)
    for a, b in zip(nodes, nodes[1:]):
        graph.add_edge(a.id, b.id)
    if graph.entry is None:
        graph.entry = nodes[0].id
    return nodes


def _module(graph: ProgramGraph, *arrays: ArraySymbol,
            init=None) -> GraphModule:
    return GraphModule(graph.name, {"main": graph},
                       {a.name: a for a in arrays}, init or {}, {})


def _f(value: float) -> Constant:
    return Constant(value, True)


def _errors() -> GraphModule:
    """Error words: an unknown array, an unknown intrinsic, an unreadable
    operand and an edge to a node that does not exist."""
    graph = ProgramGraph("main", return_type="int")
    c, t = VirtualReg("%c"), VirtualReg("%t")
    _init, head = _line(graph, ([_ins(Op.MOV, c, Constant(1))], None),
                        ([], _ins(Op.BR, None, c)))
    missing, done = _line(graph, ([_ins(Op.LOAD, t, Constant(0),
                                        array=ArraySymbol("nowhere", 4))],
                                  None),
                          ([], _ins(Op.RET, None, t)))
    split, = _line(graph, ([], _ins(Op.BR, None, c)))
    unknown, = _line(graph, ([_ins(Op.INTRIN, t, c, callee="nosuch")],
                             None))
    unread, = _line(graph, ([_ins(Op.ADD, t, c, ArraySymbol("a", 2))],
                            None))
    graph.add_edge(head.id, missing.id)
    graph.add_edge(head.id, split.id)
    graph.add_edge(split.id, unknown.id)
    graph.add_edge(unknown.id, done.id)
    graph.add_edge(split.id, unread.id)
    unread.succs.append(99)  # no node 99
    return _module(graph)


def _intrinsics() -> GraphModule:
    """Intrinsics over constants, over a register and a constant, over
    one and two registers, and over an unreadable operand."""
    graph = ProgramGraph("main", return_type="int")
    x, a, b, u, v, r = (VirtualReg(f"%f{i}", True) for i in range(6))
    t = VirtualReg("%t")
    arr = ArraySymbol("arr", 2, True)
    _line(graph,
          ([_ins(Op.FMOV, x, Constant(2.0))], None),
          ([_ins(Op.INTRIN, a, Constant(4.0), callee="sqrt")], None),
          ([_ins(Op.INTRIN, b, x, Constant(3.0), callee="pow")], None),
          ([_ins(Op.INTRIN, u, x, a, callee="atan2")], None),
          ([_ins(Op.INTRIN, v, b, callee="fabs")], None),
          ([_ins(Op.INTRIN, r, arr, callee="sin")], None),
          ([_ins(Op.FTOI, t, v)], None),
          ([], _ins(Op.RET, None, t)))
    return _module(graph, arr)


def _early_returns() -> GraphModule:
    """Returns whose operand a same-node write would clobber: read ahead
    of a scratch-deferred swap, and of a reordered direct node."""
    graph = ProgramGraph("main", return_type="int")
    a, b, s = VirtualReg("%a"), VirtualReg("%b"), VirtualReg("%s")
    _init, split, _swap = _line(
        graph,
        ([_ins(Op.MOV, a, Constant(1)), _ins(Op.MOV, b, Constant(2))],
         None),
        ([], _ins(Op.BR, None, a)),
        ([_ins(Op.MOV, a, b), _ins(Op.MOV, b, a)], _ins(Op.RET, None, a)))
    bump, = _line(graph, ([_ins(Op.ADD, s, b, Constant(1)),
                           _ins(Op.ADD, b, b, Constant(1))],
                          _ins(Op.RET, None, b)))
    graph.add_edge(split.id, bump.id)
    return _module(graph)


def _deferred_stores() -> GraphModule:
    """A scratch-deferred node storing every mix of constant and
    register index and value, with an odd number of register commits."""
    graph = ProgramGraph("main", return_type="int")
    a, b, c, i = (VirtualReg(f"%{n}") for n in "abci")
    out = ArraySymbol("out", 4)
    _line(graph,
          ([_ins(Op.MOV, a, Constant(1)), _ins(Op.MOV, b, Constant(2)),
            _ins(Op.MOV, i, Constant(3))], None),
          ([_ins(Op.MOV, a, b), _ins(Op.MOV, b, a), _ins(Op.MOV, c, a),
            _ins(Op.STORE, None, Constant(7), Constant(0), array=out),
            _ins(Op.STORE, None, a, i, array=out),
            _ins(Op.STORE, None, b, Constant(1), array=out),
            _ins(Op.STORE, None, Constant(9), i, array=out)], None),
          ([], _ins(Op.RET, None, c)))
    return _module(graph, out)


def _constant_operands() -> GraphModule:
    """Constant operands in every position: unary and binary operations
    over constants only, constant left operands of commutative and
    non-commutative operations, constant loads and stores."""
    graph = ProgramGraph("main", return_type="int")
    x, n, f, d, p, q, m, g, t = (VirtualReg(f"%{c}") for c in "xnfdpqmgt")
    h = VirtualReg("%h", True)
    out = ArraySymbol("out", 4)
    _line(graph,
          ([_ins(Op.MOV, x, Constant(5))], None),
          ([_ins(Op.NEG, n, Constant(3))], None),
          ([_ins(Op.ITOF, h, Constant(2))], None),
          ([_ins(Op.NEG, f, x)], None),
          ([_ins(Op.DIV, d, Constant(7), Constant(2))], None),
          ([_ins(Op.ADD, p, Constant(2), x)], None),
          ([_ins(Op.SUB, q, Constant(2), x)], None),
          ([_ins(Op.MUL, m, Constant(3), x)], None),
          ([_ins(Op.CMPLT, g, Constant(1), x)], None),
          ([_ins(Op.STORE, None, Constant(5), Constant(1), array=out)],
           None),
          ([_ins(Op.STORE, None, x, Constant(2), array=out)], None),
          ([_ins(Op.STORE, None, Constant(6), g, array=out)], None),
          ([_ins(Op.LOAD, t, Constant(1), array=out)], None),
          ([], _ins(Op.RET, None, t)))
    return _module(graph, out)


def _checked_early_return() -> GraphModule:
    """A reordered direct node that stores after writing the register
    its return reads: the return operand is checked before the store."""
    graph = ProgramGraph("main", return_type="int")
    t = VirtualReg("%t")
    src, out = ArraySymbol("src", 2), ArraySymbol("out", 2)
    _line(graph,
          ([_ins(Op.MOV, t, Constant(4))], None),
          ([_ins(Op.LOAD, t, Constant(1), array=src),
            _ins(Op.STORE, None, Constant(3), Constant(0), array=out)],
           _ins(Op.RET, None, t)))
    return _module(graph, src, out, init={"src": [5, 6]})


def _compares() -> GraphModule:
    """Every compare over NaN, the infinities and signed zeros, from
    registers and from constants, stored into an int array; the last
    one is also returned."""
    graph = ProgramGraph("main", return_type="int")
    x = ArraySymbol("x", 6, True)
    out = ArraySymbol("out", 54)
    nan, inf, ninf, nzero, zero, one = regs = [
        VirtualReg(f"%x{i}", True) for i in range(6)]
    pairs = [(nan, one), (nan, nan), (inf, ninf), (ninf, inf),
             (nzero, zero), (inf, inf), (_f(float("nan")), one),
             (nzero, _f(0.0)), (_f(float("-inf")), _f(float("inf")))]
    ops = (Op.FCMPEQ, Op.FCMPNE, Op.FCMPLT, Op.FCMPLE, Op.FCMPGT,
           Op.FCMPGE)
    flags = [VirtualReg(f"%c{j}") for j in range(len(ops))]
    blocks = [([_ins(Op.FLOAD, reg, Constant(i), array=x)
                for i, reg in enumerate(regs)], None)]
    for p, (a, b) in enumerate(pairs):
        blocks.append(([_ins(op, flag, a, b)
                        for op, flag in zip(ops, flags)], None))
        blocks.append(([_ins(Op.STORE, None, flag,
                             Constant(p * len(ops) + j), array=out)
                        for j, flag in enumerate(flags)], None))
    blocks.append(([], _ins(Op.RET, None, flags[-1])))
    _line(graph, *blocks)
    return _module(graph, x, out, init={
        "x": [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.0]})


def _stores() -> GraphModule:
    """Stores of int and float registers and constants into int and
    float arrays, global and local, each coerced to the array's kind,
    and stores into a parameter array bound to either kind."""
    main = ProgramGraph("main", return_type="int", local_arrays=[
        ArraySymbol("li", 2, False, False),
        ArraySymbol("lf", 2, True, False)])
    li, lf = main.local_arrays
    gi, gf = ArraySymbol("gi", 8), ArraySymbol("gf", 8, True)
    i, f, z = VirtualReg("%i"), VirtualReg("%f", True), \
        VirtualReg("%z", True)
    l0, l1 = VirtualReg("%l0"), VirtualReg("%l1")
    m0, m1 = VirtualReg("%m0", True), VirtualReg("%m1", True)

    def store(array, index, value):
        return _ins(Op.STORE, None, value, Constant(index), array=array)

    _line(main,
          ([_ins(Op.MOV, i, Constant(5)), _ins(Op.FMOV, f, _f(-2.75)),
            _ins(Op.FMOV, z, _f(-0.0))], None),
          ([store(gi, 0, f), store(gi, 1, _f(3.5)),
            store(gi, 2, Constant(7)), store(gi, 3, z),
            store(gf, 0, i), store(gf, 1, Constant(4)),
            store(gf, 2, _f(1.25)), store(gf, 3, z)], None),
          ([store(li, 0, f), store(li, 1, _f(9.5)),
            store(lf, 0, i), store(lf, 1, Constant(2))], None),
          ([_ins(Op.LOAD, l0, Constant(0), array=li),
            _ins(Op.LOAD, l1, Constant(1), array=li),
            _ins(Op.FLOAD, m0, Constant(0), array=lf),
            _ins(Op.FLOAD, m1, Constant(1), array=lf)], None),
          ([store(gi, 4, l0), store(gi, 5, l1),
            store(gf, 4, m0), store(gf, 5, m1)], None),
          ([_ins(Op.CALL, None, gi, callee="fill")], None),
          ([_ins(Op.CALL, None, gf, callee="fill")], None),
          ([], _ins(Op.RET, None, i)))
    param = ArraySymbol("p", 8, True, False)
    fill = ProgramGraph("fill", params=[param])
    _line(fill,
          ([store(param, 6, _f(0.5)), store(param, 7, Constant(3))],
           _ins(Op.RET, None)))
    return GraphModule("main", {"main": main, "fill": fill},
                       {gi.name: gi, gf.name: gf}, {}, {})


def _store_fault(array: ArraySymbol, index) -> GraphModule:
    """A store at an index outside *array*: global when *array* is
    global, else local to ``main``."""
    local = [] if array.is_global else [array]
    graph = ProgramGraph("main", return_type="int", local_arrays=local)
    k = VirtualReg("%k")
    _line(graph,
          ([_ins(Op.MOV, k, Constant(index))], None),
          ([_ins(Op.STORE, None, Constant(1), k, array=array)], None),
          ([], _ins(Op.RET, None, k)))
    return _module(graph, *([array] if array.is_global else []))


def _bitwise_and_shifts() -> GraphModule:
    """Bitwise operations and shifts by constant amounts (zero, positive)
    of registers and constants, next to a shift by a register."""
    graph = ProgramGraph("main", return_type="int")
    x, m, y = VirtualReg("%x"), VirtualReg("%m"), VirtualReg("%y")
    dests = [VirtualReg(f"%d{j}") for j in range(9)]
    out = ArraySymbol("out", len(dests))
    _line(graph,
          ([_ins(Op.MOV, x, Constant(13)), _ins(Op.MOV, m, Constant(-13)),
            _ins(Op.MOV, y, Constant(2))], None),
          ([_ins(Op.SHL, dests[0], x, Constant(0)),
            _ins(Op.SHR, dests[1], m, Constant(0)),
            _ins(Op.SHL, dests[2], m, Constant(3)),
            _ins(Op.SHR, dests[3], m, Constant(2)),
            _ins(Op.SHR, dests[4], Constant(-5), Constant(1)),
            _ins(Op.SHL, dests[5], x, y),
            _ins(Op.AND, dests[6], m, x),
            _ins(Op.OR, dests[7], Constant(6), m),
            _ins(Op.XOR, dests[8], x, Constant(-1))], None),
          ([_ins(Op.STORE, None, d, Constant(j), array=out)
            for j, d in enumerate(dests)], None),
          ([], _ins(Op.RET, None, Constant(0))))
    return _module(graph, out)


def _divisions() -> GraphModule:
    """Division by a positive constant of negative, zero and positive
    ints, of ``-0.0`` and of negative floats, next to division by a
    negative constant, into a float array that keeps the signs."""
    graph = ProgramGraph("main", return_type="int")
    a, b, c = VirtualReg("%a"), VirtualReg("%b"), VirtualReg("%c")
    z, w = VirtualReg("%z", True), VirtualReg("%w", True)
    cases = [(a, 3), (b, 3), (c, 3), (z, 3), (w, 2), (Constant(-9), 4),
             (a, -3), (z, -3)]
    dests = [VirtualReg(f"%q{j}", True) for j in range(len(cases))]
    out = ArraySymbol("out", len(cases), True)
    _line(graph,
          ([_ins(Op.MOV, a, Constant(-7)), _ins(Op.MOV, b, Constant(0)),
            _ins(Op.MOV, c, Constant(7)), _ins(Op.FMOV, z, _f(-0.0)),
            _ins(Op.FMOV, w, _f(-7.5))], None),
          ([_ins(Op.DIV, d, n, Constant(k))
            for d, (n, k) in zip(dests, cases)], None),
          ([_ins(Op.STORE, None, d, Constant(j), array=out)
            for j, d in enumerate(dests)], None),
          ([], _ins(Op.RET, None, Constant(0))))
    return _module(graph, out)


def _faulting_binary(op: Op, amount: int) -> GraphModule:
    """``%x OP amount`` with a constant *amount* its function refuses."""
    graph = ProgramGraph("main", return_type="int")
    x, d = VirtualReg("%x"), VirtualReg("%d")
    _line(graph,
          ([_ins(Op.MOV, x, Constant(12))], None),
          ([_ins(op, d, x, Constant(amount))], None),
          ([], _ins(Op.RET, None, d)))
    return _module(graph)


def shape_modules() -> dict:
    """Hand-built modules reaching the word shapes the suite never
    lowers, by name."""
    return {"bitwise-and-shifts": _bitwise_and_shifts(),
            "checked-early-return": _checked_early_return(),
            "compares": _compares(),
            "constant-operands": _constant_operands(),
            "deferred-stores": _deferred_stores(),
            "divisions": _divisions(),
            "division-by-zero-constant": _faulting_binary(Op.DIV, 0),
            "early-returns": _early_returns(),
            "errors": _errors(),
            "intrinsics": _intrinsics(),
            "negative-shift": _faulting_binary(Op.SHL, -1),
            "store-negative-index": _store_fault(
                ArraySymbol("loc", 4, True, False), -1),
            "store-out-of-bounds": _store_fault(ArraySymbol("g", 4), 4),
            "stores": _stores()}


def snapshot() -> dict:
    """``{benchmark: {level: {"optimized", "resequenced"}}}``, plus
    ``{"shapes": {name: sha}}`` for :func:`shape_modules`."""
    result: dict = {"shapes": {name: source_sha(module) for name, module
                               in shape_modules().items()}}
    for spec in all_benchmarks():
        module = compile_benchmark(spec)
        per_level: dict = {}
        for level in LEVELS:
            gm, _report = optimize_module(module, level)
            per_level[str(int(level))] = {
                "optimized": source_sha(gm),
                "resequenced": source_sha(resequence_module(gm)),
            }
        result[spec.name] = per_level
    return result


def dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(snapshot()))
    print(f"wrote {GOLDEN_PATH}")

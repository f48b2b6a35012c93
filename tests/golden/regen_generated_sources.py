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
stores of constants and registers.  Small hand-built modules
(:func:`shape_modules`) reach each of them, and their hashes sit under
the ``"shapes"`` key.

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


def _module(graph: ProgramGraph, *arrays: ArraySymbol) -> GraphModule:
    return GraphModule(graph.name, {"main": graph},
                       {a.name: a for a in arrays}, {}, {})


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


def shape_modules() -> dict:
    """Hand-built modules reaching the word shapes the suite never
    lowers, by name."""
    return {"constant-operands": _constant_operands(),
            "deferred-stores": _deferred_stores(),
            "early-returns": _early_returns(),
            "errors": _errors(),
            "intrinsics": _intrinsics()}


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

"""Opcode vocabulary of the three-address code.

Opcodes are deliberately close to what a simple load/store RISC datapath
offers, because the paper's chained instructions are built by fusing exactly
these micro-operations.  Each opcode carries:

* an :class:`OpKind` classifying it for the analyses (arithmetic, memory,
  control, ...);
* a *chain class* — the name used by the paper when reporting sequences
  ("multiply-add", "fload-fmultiply", "add-compare", ...).  Opcodes whose
  chain class is ``None`` never participate in chainable sequences (moves,
  control flow, calls).
"""

from __future__ import annotations

import enum


class OpKind(enum.Enum):
    """Coarse classification of opcodes, used by dataflow and scheduling."""

    INT_ARITH = "int_arith"
    FLOAT_ARITH = "float_arith"
    COMPARE = "compare"
    CONVERT = "convert"
    MEMORY = "memory"
    DATA = "data"        # register-to-register moves
    CONTROL = "control"  # branches, jumps, returns
    CALL = "call"        # calls and intrinsics
    META = "meta"        # labels / nops


class Op(enum.Enum):
    """Every opcode of the three-address code."""

    # Integer arithmetic / logic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"

    # Integer comparisons (produce 0/1 in an integer register).
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"

    # Floating-point arithmetic.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"

    # Floating-point comparisons (produce 0/1 in an integer register).
    FCMPEQ = "fcmpeq"
    FCMPNE = "fcmpne"
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    FCMPGT = "fcmpgt"
    FCMPGE = "fcmpge"

    # Conversions.
    ITOF = "itof"
    FTOI = "ftoi"

    # Memory (arrays are the only memory objects; address = element index).
    LOAD = "load"      # dst = array[idx]          (integer array)
    STORE = "store"    # array[idx] = src          (integer array)
    FLOAD = "fload"    # dst = array[idx]          (float array)
    FSTORE = "fstore"  # array[idx] = src          (float array)

    # Data movement.
    MOV = "mov"
    FMOV = "fmov"

    # Control flow.
    BR = "br"          # conditional branch on an integer register
    JMP = "jmp"        # unconditional jump
    RET = "ret"        # return (optional value)

    # Calls.
    CALL = "call"      # user function call
    INTRIN = "intrin"  # opaque math intrinsic (sin, cos, sqrt, ...)

    # Meta.
    NOP = "nop"

    # A fused chained instruction (ASIP extension).  Only produced by
    # repro.asip.select; carries its constituent operations in a
    # FusedInstruction and executes them back-to-back within one issue.
    CHAIN = "chain"


_KIND = {
    Op.ADD: OpKind.INT_ARITH,
    Op.SUB: OpKind.INT_ARITH,
    Op.MUL: OpKind.INT_ARITH,
    Op.DIV: OpKind.INT_ARITH,
    Op.MOD: OpKind.INT_ARITH,
    Op.NEG: OpKind.INT_ARITH,
    Op.AND: OpKind.INT_ARITH,
    Op.OR: OpKind.INT_ARITH,
    Op.XOR: OpKind.INT_ARITH,
    Op.NOT: OpKind.INT_ARITH,
    Op.SHL: OpKind.INT_ARITH,
    Op.SHR: OpKind.INT_ARITH,
    Op.CMPEQ: OpKind.COMPARE,
    Op.CMPNE: OpKind.COMPARE,
    Op.CMPLT: OpKind.COMPARE,
    Op.CMPLE: OpKind.COMPARE,
    Op.CMPGT: OpKind.COMPARE,
    Op.CMPGE: OpKind.COMPARE,
    Op.FADD: OpKind.FLOAT_ARITH,
    Op.FSUB: OpKind.FLOAT_ARITH,
    Op.FMUL: OpKind.FLOAT_ARITH,
    Op.FDIV: OpKind.FLOAT_ARITH,
    Op.FNEG: OpKind.FLOAT_ARITH,
    Op.FCMPEQ: OpKind.COMPARE,
    Op.FCMPNE: OpKind.COMPARE,
    Op.FCMPLT: OpKind.COMPARE,
    Op.FCMPLE: OpKind.COMPARE,
    Op.FCMPGT: OpKind.COMPARE,
    Op.FCMPGE: OpKind.COMPARE,
    Op.ITOF: OpKind.CONVERT,
    Op.FTOI: OpKind.CONVERT,
    Op.LOAD: OpKind.MEMORY,
    Op.STORE: OpKind.MEMORY,
    Op.FLOAD: OpKind.MEMORY,
    Op.FSTORE: OpKind.MEMORY,
    Op.MOV: OpKind.DATA,
    Op.FMOV: OpKind.DATA,
    Op.BR: OpKind.CONTROL,
    Op.JMP: OpKind.CONTROL,
    Op.RET: OpKind.CONTROL,
    Op.CALL: OpKind.CALL,
    Op.INTRIN: OpKind.CALL,
    Op.NOP: OpKind.META,
    Op.CHAIN: OpKind.META,
}

# The vocabulary the paper uses when naming detected sequences: Table 2 and
# Table 3 report names like "multiply-add", "add-shift-add", "add-compare",
# "load-multiply-add", "fload-fmultiply", "fmul-fsub-fstore".  Data-movement,
# control and call opcodes are not chainable operations and map to None.
_CHAIN_CLASS = {
    Op.ADD: "add",
    Op.SUB: "subtract",
    Op.MUL: "multiply",
    Op.DIV: "divide",
    Op.MOD: "divide",
    Op.NEG: "subtract",
    Op.AND: "logic",
    Op.OR: "logic",
    Op.XOR: "logic",
    Op.NOT: "logic",
    Op.SHL: "shift",
    Op.SHR: "shift",
    Op.CMPEQ: "compare",
    Op.CMPNE: "compare",
    Op.CMPLT: "compare",
    Op.CMPLE: "compare",
    Op.CMPGT: "compare",
    Op.CMPGE: "compare",
    Op.FADD: "fadd",
    Op.FSUB: "fsub",
    Op.FMUL: "fmultiply",
    Op.FDIV: "fdivide",
    Op.FNEG: "fsub",
    Op.FCMPEQ: "fcompare",
    Op.FCMPNE: "fcompare",
    Op.FCMPLT: "fcompare",
    Op.FCMPLE: "fcompare",
    Op.FCMPGT: "fcompare",
    Op.FCMPGE: "fcompare",
    Op.ITOF: "convert",
    Op.FTOI: "convert",
    Op.LOAD: "load",
    Op.STORE: "store",
    Op.FLOAD: "fload",
    Op.FSTORE: "fstore",
    Op.MOV: None,
    Op.FMOV: None,
    Op.BR: None,
    Op.JMP: None,
    Op.RET: None,
    Op.CALL: None,
    Op.INTRIN: None,
    Op.NOP: None,
    Op.CHAIN: None,
}

_FLOAT_RESULT = {
    Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FNEG,
    Op.ITOF, Op.FLOAD, Op.FMOV,
}

_COMMUTATIVE = {Op.ADD, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.FADD, Op.FMUL,
                Op.CMPEQ, Op.CMPNE, Op.FCMPEQ, Op.FCMPNE}


def kind(op: Op) -> OpKind:
    """Return the :class:`OpKind` of *op*."""
    return _KIND[op]


def chain_class(op: Op):
    """Return the paper's sequence-vocabulary name for *op*, or ``None``.

    ``None`` means the opcode never appears inside a chainable sequence.
    """
    return _CHAIN_CLASS[op]


def is_chainable(op: Op) -> bool:
    """True when *op* may be an element of a chained-operation sequence."""
    return _CHAIN_CLASS[op] is not None


def is_float_op(op: Op) -> bool:
    """True when *op* produces a floating-point result."""
    return op in _FLOAT_RESULT


def is_commutative(op: Op) -> bool:
    """True when *op* may have its two source operands swapped."""
    return op in _COMMUTATIVE


def result_type(op: Op) -> str:
    """Return ``"float"`` / ``"int"`` / ``"none"`` for *op*'s destination."""
    if op in (Op.STORE, Op.FSTORE, Op.BR, Op.JMP, Op.RET, Op.NOP, Op.CHAIN):
        return "none"
    return "float" if op in _FLOAT_RESULT else "int"


def has_side_effects(op: Op) -> bool:
    """True when *op* writes memory or transfers control.

    Side-effecting operations must never be executed speculatively, which
    constrains how far percolation scheduling may move them (they cannot be
    hoisted above a conditional branch).
    """
    return op in (Op.STORE, Op.FSTORE, Op.CALL, Op.BR, Op.JMP, Op.RET,
                  Op.CHAIN)


def is_control(op: Op) -> bool:
    """True for branch / jump / return opcodes."""
    return _KIND[op] is OpKind.CONTROL


def is_memory(op: Op) -> bool:
    """True for the four array access opcodes."""
    return _KIND[op] is OpKind.MEMORY


#: The store and load opcodes.  Tuples: an ``in`` test finds an enum
#: member by identity, without calling the Python-level ``Enum.__hash__``
#: a set lookup needs, so hot callers test membership inline.
STORE_OPS = (Op.STORE, Op.FSTORE)
LOAD_OPS = (Op.LOAD, Op.FLOAD)


def is_store(op: Op) -> bool:
    """True for the two store opcodes."""
    return op in STORE_OPS


def is_load(op: Op) -> bool:
    """True for the two load opcodes."""
    return op in LOAD_OPS


INT_BINARY = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
    "&": Op.AND, "|": Op.OR, "^": Op.XOR, "<<": Op.SHL, ">>": Op.SHR,
    "==": Op.CMPEQ, "!=": Op.CMPNE, "<": Op.CMPLT, "<=": Op.CMPLE,
    ">": Op.CMPGT, ">=": Op.CMPGE,
}

FLOAT_BINARY = {
    "+": Op.FADD, "-": Op.FSUB, "*": Op.FMUL, "/": Op.FDIV,
    "==": Op.FCMPEQ, "!=": Op.FCMPNE, "<": Op.FCMPLT, "<=": Op.FCMPLE,
    ">": Op.FCMPGT, ">=": Op.FCMPGE,
}

"""Lowering of program graphs to flat word lists.

:class:`~repro.sim.machine.GraphInterpreter` walks the program graph with a
~30-arm opcode dispatch, ``isinstance`` operand checks and two dict mutations
of profile bookkeeping for every node of every simulated cycle.  The
``codegen`` engine (:mod:`repro.sim.codegen`) removes all of that; this
module is its first stage.  :func:`lower_module` flattens each graph into a
list of *words*, executed in list order: one integer opcode per operation
(13 in all), pre-resolved register/array slot indices, and operands that
carry their own kind (register read, checked register read or inlined
constant), with explicit ``J``/``JB``/``BR`` words naming their targets by
word index, and profile counting reduced to one counter per branch edge.
The generator then emits one Python function per lowered graph, and the
range analysis (:mod:`repro.analysis.ranges`) reads the same words; both
decode operands through :func:`decode_operand`.

The lowered form is cached on the :class:`GraphModule` under the module's
content key (:func:`~repro.sim.diskcache.content_key`), so repeated runs
of the same module pay lowering once; equal content means the same
lowered form.  The lowered form holds no reference back to the module,
so a dropped module is freed by reference counting.  Words hold no
references to other words, so the lowered form pickles as is into the
disk-cache entry.
:func:`run_lowered_module` is the run frame around the generated code:
globals, inputs, counters, profile reconstruction and the cycle limit.

The tree-walking interpreter is kept intact as the *reference* engine (the
semantic oracle); differential tests assert the two produce bit-identical
results, cycle counts included, on the whole DSP suite.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.cfg.graph import GraphModule, Node, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.sim.diskcache import content_key
from repro.sim.machine import MachineResult
from repro.sim.memory import ArrayStorage
from repro.sim.profile import ProfileData
from repro.sim.values import (INTRINSIC_IMPL, float_div, int_div, int_mod,
                              shift_left, shift_right)

# -- the undefined-register sentinel ---------------------------------------------
#
# Register slots start out holding _UNDEF.  Any arithmetic, comparison or
# conversion touching it raises SimulationError, mirroring the reference
# interpreter's read-of-undefined-register guard without a per-read check.


class _UndefinedRegister:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<undefined register>"


def _undef_operation(self, *_args):
    raise SimulationError("read of undefined register")


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
    "__abs__", "__invert__", "__and__", "__rand__", "__or__", "__ror__",
    "__xor__", "__rxor__", "__lshift__", "__rlshift__", "__rshift__",
    "__rrshift__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
    "__ne__", "__bool__", "__int__", "__float__", "__index__",
    "__round__", "__trunc__",
):
    setattr(_UndefinedRegister, _name, _undef_operation)

_UNDEF = _UndefinedRegister()


class _MissingArray:
    """Placeholder bound to an array slot whose name resolves nowhere."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def load(self, _index):
        raise SimulationError(f"unknown array {self.name!r}")

    def store(self, _index, _value):
        raise SimulationError(f"unknown array {self.name!r}")


# -- scalar operation tables ------------------------------------------------------


def _cmp_eq(a, b):
    return int(a == b)


def _cmp_ne(a, b):
    return int(a != b)


def _cmp_lt(a, b):
    return int(a < b)


def _cmp_le(a, b):
    return int(a <= b)


def _cmp_gt(a, b):
    return int(a > b)


def _cmp_ge(a, b):
    return int(a >= b)


_BINARY_FN = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: int_div,
    Op.MOD: int_mod,
    Op.AND: operator.and_,
    Op.OR: operator.or_,
    Op.XOR: operator.xor,
    Op.SHL: shift_left,
    Op.SHR: shift_right,
    Op.CMPEQ: _cmp_eq, Op.FCMPEQ: _cmp_eq,
    Op.CMPNE: _cmp_ne, Op.FCMPNE: _cmp_ne,
    Op.CMPLT: _cmp_lt, Op.FCMPLT: _cmp_lt,
    Op.CMPLE: _cmp_le, Op.FCMPLE: _cmp_le,
    Op.CMPGT: _cmp_gt, Op.FCMPGT: _cmp_gt,
    Op.CMPGE: _cmp_ge, Op.FCMPGE: _cmp_ge,
    Op.FADD: operator.add,
    Op.FSUB: operator.sub,
    Op.FMUL: operator.mul,
    Op.FDIV: float_div,
}

_UNARY_FN = {
    Op.NEG: operator.neg,
    Op.FNEG: operator.neg,
    Op.NOT: operator.invert,
    Op.ITOF: float,
    Op.FTOI: int,  # C truncation
}


# -- per-run state ----------------------------------------------------------------


class _RunState:
    """Mutable state of one simulated run (shared across call frames)."""

    __slots__ = ("globals", "cyc", "max_cycles", "depth", "edge_hits",
                 "call_counts")

    def __init__(self, globals_: Dict[str, ArrayStorage], max_cycles: int,
                 edge_hits: Dict[str, List[int]]):
        self.globals = globals_
        self.cyc = [0]  # shared cycle counter cell
        self.max_cycles = max_cycles
        self.depth = 0
        self.edge_hits = edge_hits
        self.call_counts: Dict[str, int] = {}


# -- frame layout -----------------------------------------------------------------


class _FrameLayout:
    """Flat slot assignment for one graph's frame.

    Resolves register and array names to integer slots and builds the
    frame-construction plans (parameters, locals, late-bound globals,
    missing-name placeholders) the generated prologue follows.
    """

    def __init__(self, graph: ProgramGraph, module: GraphModule):
        self.graph = graph
        self.module = module
        # Register slot 0 is reserved for the frame's return value.
        self.reg_slots: Dict[str, int] = {}
        self.arr_slots: Dict[str, int] = {}
        self.global_plan: List[Tuple[int, str]] = []
        self.missing_plan: List[Tuple[int, _MissingArray]] = []
        self.missing_names: set = set()

    # -- slot assignment ----------------------------------------------------------

    def reg_slot(self, name: str) -> int:
        slot = self.reg_slots.get(name)
        if slot is None:
            slot = len(self.reg_slots) + 1
            self.reg_slots[name] = slot
        return slot

    def _new_arr_slot(self, name: str) -> int:
        slot = len(self.arr_slots)
        self.arr_slots[name] = slot
        return slot

    def arr_slot(self, name: str) -> int:
        """Slot for *name*, late-binding globals / flagging unknown names."""
        slot = self.arr_slots.get(name)
        if slot is not None:
            return slot
        slot = self._new_arr_slot(name)
        if name in self.module.global_arrays:
            self.global_plan.append((slot, name))
        else:
            self.missing_plan.append((slot, _MissingArray(name)))
            self.missing_names.add(name)
        return slot

    def array_is_bound(self, name: str) -> bool:
        """True when loads/stores on *name* can resolve to real storage."""
        if name in self.arr_slots:
            return name not in self.missing_names
        return name in self.module.global_arrays

    def build_plans(self):
        """Parameter and local-array frame plans (claimed before any body
        operand so locals of the same name shadow them, matching the
        reference interpreter's frame dict)."""
        graph = self.graph
        param_plan: List[Tuple[bool, int, str]] = []
        for param in graph.params:
            if isinstance(param, VirtualReg):
                param_plan.append(
                    (True, self.reg_slot(param.name), param.name))
            else:
                slot = self.arr_slots.get(param.name)
                if slot is None:
                    slot = self._new_arr_slot(param.name)
                param_plan.append((False, slot, param.name))
        local_plan = []
        for symbol in graph.local_arrays:
            slot = self.arr_slots.get(symbol.name)
            if slot is None:
                slot = self._new_arr_slot(symbol.name)
            local_plan.append((slot, symbol))
        return param_plan, local_plan


# -- lowering to words -------------------------------------------------------------
#
# Each graph lowers into a flat list of *words*: every operation is one
# list ``[opcode, ...]`` naming its destination by register slot, its
# array by array slot and its inputs by *operands* (below).  Words execute
# in list order: a word that is not a control transfer falls through to
# the word after it, and the transfers (``J``, ``JB``, ``BR``) name their
# targets by index into the list.  The code generator
# (:mod:`repro.sim.codegen`) walks these words and emits straight-line
# Python over local variables.
#
# Conventions: register slots index the frame's flat ``regs`` list (slot 0
# = return value).  Per-node scratch values live at *negative* indices —
# the register list is sized ``named + 1 + watermark`` so the tail region
# never collides with named slots.  Profile counting is reduced to one
# increment per *branch* edge: fall-through edge counts equal their source
# node's execution count, and node counts equal in-edge sums plus call
# arrivals, so :meth:`_LoweredGraph.resolve_counters` reconstructs the
# exact flat arrays (bit-identical for completed runs — aborted runs
# discard their profile on every engine) that
# :meth:`ProfileData.merge_arrays` folds unchanged.
#
# An operand carries its own kind, so one opcode serves every mix of
# register and constant inputs (:func:`decode_operand` reads it back):
#
#   slot          an ``int``: a register read; an undefined value raises
#                 when it is used (the _UNDEF sentinel)
#   (value,)      an inlined constant
#   (slot, name)  a *checked* register read, which raises "read of
#                 undefined register <name>" at once, as the reference
#                 interpreter's moves and returns do

_opcode_ids = itertools.count()


def _op() -> int:
    return next(_opcode_ids)


# Control transfers; ``T`` is a target word index.
BR = _op()           # c e0 T0 e1 T1
J = _op()            # T      (forward jump: no cycle-limit check)
JB = _op()           # T      (backward jump: bumps + checks the limit)
# A branch condition read ahead of its node's commits.
TEST = _op()         # s c    regs[s] = regs[c] != 0
# Operations; ``a``, ``b``, ``i`` and ``v`` are operands.
MOV = _op()          # d a
BIN = _op()          # d f a b   f: infix symbol or function object
UN = _op()           # d f a     f: "-" (register operand) or function
LOAD = _op()         # d k i
ST = _op()           # k i v     (array k, index i, value v)
INTRN = _op()        # d f (a, ...)   an unreadable operand is the
                     #                message its read raises
CALL = _op()         # callee dspec specs
RET = _op()          # a      (None: no value)
ERROR = _op()        # message     raise SimulationError(message)

#: Operand slots holding target word indices, per control transfer.
JUMP_SLOTS = {J: (1,), JB: (1,), BR: (3, 5)}

#: Words that do not fall through to the next word.
TERMINAL_OPS = frozenset({BR, J, JB, RET, ERROR})

#: Binary operations emitted as infix operators.  A constant left operand
#: swaps to the right of a commutative one; any other constant left
#: operand, or a pair of constants, calls the operation's function.
_INFIX = {Op.ADD: "+", Op.FADD: "+", Op.SUB: "-", Op.FSUB: "-",
          Op.MUL: "*", Op.FMUL: "*"}
_COMMUTATIVE = frozenset({"+", "*"})


def decode_operand(operand) -> Tuple[str, object, Optional[str]]:
    """``(kind, payload, name)`` of a word operand: kind ``"r"`` with a
    register slot, ``name`` set when the read is checked, or ``"c"`` with
    an inlined constant and no name."""
    if type(operand) is int:
        return "r", operand, None
    if len(operand) == 1:
        return "c", operand[0], None
    return "r", operand[0], operand[1]


#: Edge classes for profile reconstruction.
_EDGE_ZERO = 0      # never jumped (error nodes, const-branch untaken)
_EDGE_COUNTED = 1   # branch edges: runtime counter
_EDGE_DERIVED = 2   # fall/jump edges: count == source node's count


class _WordLowerer(_FrameLayout):
    """Lowers one :class:`ProgramGraph` into a flat word list."""

    def __init__(self, graph: ProgramGraph, module: GraphModule,
                 idx_of: Dict[int, int]):
        super().__init__(graph, module)
        self.idx_of = idx_of
        self._node_idx = -1
        self.words: List[list] = []
        self.edge_pairs: List[Tuple[int, int]] = []
        self.edge_class: List[int] = []
        #: (word, slot, successor node id) fixed up once all nodes exist.
        self.patches: List[Tuple[list, int, int]] = []
        self.scratch_watermark = 0
        self._scratch_used = 0

    # -- word emission -------------------------------------------------------------

    def _emit(self, word: list) -> list:
        self.words.append(word)
        return word

    def _emit_jump(self, edge_index: int, succ: int) -> None:
        # The in-loop cycle limit is checked at loop back-edges, branches
        # and frame entries only: every CFG cycle contains a backward
        # edge in the fixed node order, so a runaway program still
        # aborts.  A *bounded* overrun that slips past this sparse check
        # is caught exactly at the end of the run, when the engine
        # compares the reconstructed cycle count against the limit — so
        # a run either completes within the limit on every engine or
        # raises on every engine (the abort point inside an aborted run
        # may differ; aborted runs discard all results everywhere).
        opcode = JB if self._is_backward(succ) else J
        word = self._emit([opcode, None])
        self.patches.append((word, 1, succ))
        self.edge_class[edge_index] = _EDGE_DERIVED

    def _is_backward(self, succ: int) -> bool:
        target = self.idx_of.get(succ)
        return target is not None and target <= self._node_idx

    # -- scratch slots -------------------------------------------------------------

    def _scratch(self) -> int:
        self._scratch_used += 1
        if self._scratch_used > self.scratch_watermark:
            self.scratch_watermark = self._scratch_used
        return -self._scratch_used

    # -- operands ------------------------------------------------------------------

    def _readable(self, *values) -> bool:
        """True when every value is a register or a constant; otherwise
        emits the error word of the first that is not."""
        for value in values:
            if not isinstance(value, (VirtualReg, Constant)):
                self._emit_error(f"cannot read operand {value!r}")
                return False
        return True

    def _read(self, value, checked: bool = False):
        """The operand reading register or constant *value*."""
        if isinstance(value, Constant):
            return (value.value,)
        slot = self.reg_slot(value.name)
        return (slot, value.name) if checked else slot

    # -- per-operation emission ----------------------------------------------------

    def _emit_error(self, message: str) -> int:
        self._emit([ERROR, message])
        return 1

    def _emit_binary(self, op: Op, fn, lhs, rhs, d: int) -> int:
        if not self._readable(lhs, rhs):
            return 1
        a, b = self._read(lhs), self._read(rhs)
        sym = _INFIX.get(op)
        if sym is not None and isinstance(lhs, Constant):
            if sym in _COMMUTATIVE and isinstance(rhs, VirtualReg):
                a, b = b, a
            else:
                sym = None
        self._emit([BIN, d, fn if sym is None else sym, a, b])
        return 1

    def _emit_value(self, ins: Instruction, d: int) -> Optional[int]:
        """Emit *ins* computing into ``regs[d]``; ``None`` when the opcode
        produces no value (stores, calls, chains, nops)."""
        op = ins.op
        fn = _BINARY_FN.get(op)
        if fn is not None:
            return self._emit_binary(op, fn, ins.srcs[0], ins.srcs[1], d)
        fn = _UNARY_FN.get(op)
        if fn is not None:
            src = ins.srcs[0]
            if self._readable(src):
                if (op is Op.NEG or op is Op.FNEG) \
                        and isinstance(src, VirtualReg):
                    fn = "-"  # a negated constant calls the function
                self._emit([UN, d, fn, self._read(src)])
            return 1
        if op is Op.MOV or op is Op.FMOV:
            src = ins.srcs[0]
            if self._readable(src):
                self._emit([MOV, d, self._read(src, checked=True)])
            return 1
        if op is Op.LOAD or op is Op.FLOAD:
            name = ins.array.name
            if not self.array_is_bound(name):
                return self._emit_error(f"unknown array {name!r}")
            k = self.arr_slot(name)
            index = ins.srcs[0]
            if self._readable(index):
                self._emit([LOAD, d, k, self._read(index)])
            return 1
        if op is Op.INTRIN:
            impl = INTRINSIC_IMPL.get(ins.callee)
            if impl is None:
                return self._emit_error(f"unknown intrinsic {ins.callee!r}")
            self._emit([INTRN, d, impl, tuple(
                self._read(src) if isinstance(src, (VirtualReg, Constant))
                else f"cannot read operand {src!r}" for src in ins.srcs)])
            return 1
        return None

    def _emit_store_direct(self, ins: Instruction) -> int:
        name = ins.array.name
        if not self.array_is_bound(name):
            return self._emit_error(f"unknown array {name!r}")
        k = self.arr_slot(name)
        value, index = ins.srcs[0], ins.srcs[1]
        if self._readable(index, value):
            v = self._read(value)
            self._emit([ST, k, self._read(index), v])
        return 1

    def _emit_call(self, ins: Instruction, dspec: Optional[int]) -> int:
        # Argument specs: 0 = checked register (slot, name), 1 = constant,
        # 2 = array slot, 3 = unbound array name, 4 = unreadable operand.
        specs = []
        for src in ins.srcs:
            if isinstance(src, ArraySymbol):
                name = src.name
                if name in self.arr_slots \
                        or name in self.module.global_arrays:
                    specs.append((2, self.arr_slot(name), None))
                else:
                    specs.append((3, name, None))
            elif isinstance(src, VirtualReg):
                specs.append((0, self.reg_slot(src.name), src.name))
            elif isinstance(src, Constant):
                specs.append((1, src.value, None))
            else:
                specs.append((4, f"cannot read operand {src!r}", None))
        self._emit([CALL, ins.callee, dspec, tuple(specs)])
        return 1

    def _emit_op_direct(self, ins: Instruction) -> int:
        """Emit *ins* with immediate writes; returns words emitted.

        Used for hazard-free nodes (direct order is then bit-identical to
        the read/commit discipline) and for chain parts, whose commits
        are immediate by definition."""
        op = ins.op
        if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
            count = 0
            for part in ins.parts:
                count += self._emit_op_direct(part)
            return count
        if op is Op.NOP:
            return 0
        if op is Op.STORE or op is Op.FSTORE:
            return self._emit_store_direct(ins)
        if op is Op.CALL:
            d = self.reg_slot(ins.dest.name) if ins.dest is not None else None
            return self._emit_call(ins, d)
        if ins.dest is not None:
            d = self.reg_slot(ins.dest.name)
        else:
            d = self._scratch()  # computed and discarded; errors still raise
        emitted = self._emit_value(ins, d)
        if emitted is None:
            return self._emit_error(f"cannot execute {ins}")
        return emitted

    def _defer_operand(self, value):
        """The operand a deferred store commits: a constant inline, a
        register captured into scratch at read time."""
        if isinstance(value, Constant):
            return (value.value,)
        if isinstance(value, VirtualReg):
            s = self._scratch()
            self._emit([MOV, s, self.reg_slot(value.name)])
            return s
        self._emit_error(f"cannot read operand {value!r}")
        return None

    def _emit_op_deferred(self, ins: Instruction, pending_regs: List,
                          pending_stores: List) -> None:
        """Emit *ins* in read phase, deferring its writes into the pending
        lists committed at the end of the node's cycle."""
        op = ins.op
        if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
            self._emit_op_direct(ins)  # chain commits are immediate
            return
        if op is Op.NOP:
            return
        if op is Op.STORE or op is Op.FSTORE:
            name = ins.array.name
            if not self.array_is_bound(name):
                self._emit_error(f"unknown array {name!r}")
                return
            k = self.arr_slot(name)
            index = self._defer_operand(ins.srcs[1])
            if index is None:
                return
            value = self._defer_operand(ins.srcs[0])
            if value is None:
                return
            pending_stores.append((k, index, value))
            return
        if op is Op.CALL:
            if ins.dest is not None:
                s = self._scratch()
                self._emit_call(ins, s)
                pending_regs.append((self.reg_slot(ins.dest.name), s))
            else:
                self._emit_call(ins, None)
            return
        s = self._scratch()
        emitted = self._emit_value(ins, s)
        if emitted is None:
            self._emit_error(f"cannot execute {ins}")
            return
        if ins.dest is not None:
            pending_regs.append((self.reg_slot(ins.dest.name), s))

    def _emit_commits(self, pending_regs: List,
                      pending_stores: List) -> None:
        """Commit registers (op order) then stores (op order)."""
        for d, s in pending_regs:
            self._emit([MOV, d, s])
        for k, index, value in pending_stores:
            self._emit([ST, k, index, value])

    # -- hazard analysis -----------------------------------------------------------

    @staticmethod
    def _chain_effects(ins: Instruction, reads: set, writes: set) -> None:
        for part in ins.parts:
            if part.op is Op.CHAIN and getattr(part, "parts", None) \
                    is not None:
                _WordLowerer._chain_effects(part, reads, writes)
                continue
            for src in part.srcs:
                if isinstance(src, VirtualReg):
                    reads.add(src.name)
            if part.dest is not None:
                writes.add(part.dest.name)

    def _needs_defer(self, node: Node) -> bool:
        """True when direct in-order emission would let some operation (or
        the control instruction) observe a same-cycle write that the VLIW
        read/commit discipline hides from it.  Conservative: deferred
        emission is always correct, direct is the fast path."""
        written: set = set()
        store_seen = False
        for ins in node.ops:
            op = ins.op
            if op is Op.CHAIN and getattr(ins, "parts", None) is not None:
                if store_seen:
                    return True  # the chain would see the pending store
                reads: set = set()
                writes: set = set()
                self._chain_effects(ins, reads, writes)
                if (reads | writes) & written:
                    return True
                continue
            for src in ins.srcs:
                if isinstance(src, VirtualReg) and src.name in written:
                    return True
            if op is Op.STORE or op is Op.FSTORE:
                store_seen = True
            elif (op is Op.LOAD or op is Op.FLOAD or op is Op.CALL) \
                    and store_seen:
                return True
            if ins.dest is not None:
                written.add(ins.dest.name)
        control = node.control
        if control is not None:
            for src in control.srcs:
                if isinstance(src, VirtualReg) and src.name in written:
                    return True
        return False

    def _reorder_for_direct(self, node: Node) -> Optional[List[Instruction]]:
        """Try to order a hazardous node's operations so direct emission is
        still bit-identical: every reader runs before the writer it must
        not observe, loads and pure computes run before stores, stores
        keep their relative order (the write-phase commit order).

        Returns the reordered op list, or ``None`` when the node cannot be
        statically untangled (chains and calls have positional immediate
        effects; true read/write cycles — swap patterns — need scratch).
        Within the reordered read phase the evaluation *order* of
        independent operations changes, which is unobservable for
        completed runs (all reads still see pre-cycle state).
        """
        ops = node.ops
        stores: List[Instruction] = []
        computes: List[Instruction] = []
        for ins in ops:
            op = ins.op
            if op is Op.CHAIN or op is Op.CALL:
                return None
            if op is Op.STORE or op is Op.FSTORE:
                stores.append(ins)
            else:
                computes.append(ins)
        dests: Dict[str, List[int]] = {}
        for i, ins in enumerate(computes):
            if ins.dest is not None:
                dests.setdefault(ins.dest.name, []).append(i)
        # stores run last, so their operands must not be in-node defs
        for ins in stores:
            for src in ins.srcs:
                if isinstance(src, VirtualReg) and src.name in dests:
                    return None
        # reader-before-writer topological order over the computes
        succs: List[List[int]] = [[] for _ in computes]
        degree = [0] * len(computes)
        for i, ins in enumerate(computes):
            for src in ins.srcs:
                if not isinstance(src, VirtualReg):
                    continue
                for j in dests.get(src.name, ()):
                    if j != i:
                        succs[i].append(j)  # i (reader) before j (writer)
                        degree[j] += 1
        # same-dest writers keep their relative order (last write wins)
        for writers in dests.values():
            for a, b in zip(writers, writers[1:]):
                succs[a].append(b)
                degree[b] += 1
        order: List[Instruction] = []
        ready = [i for i in range(len(computes)) if degree[i] == 0]
        ready.reverse()  # pop() from the front -> stable original order
        while ready:
            i = ready.pop()
            order.append(computes[i])
            pending: List[int] = []
            for j in succs[i]:
                degree[j] -= 1
                if degree[j] == 0:
                    pending.append(j)
            pending.reverse()
            ready.extend(pending)
        if len(order) != len(computes):
            return None  # a genuine read/write cycle: fall back to scratch
        return order + stores

    # -- node lowering -------------------------------------------------------------

    def _emit_branch(self, cond, cond_slot: Optional[int], edge_base: int,
                     succs: List[int]) -> None:
        # A malformed single-successor branch still *runs* on the other
        # engines as long as only the true edge is taken, so the error
        # word for the missing false edge is reached only when that edge
        # is actually traversed.
        missing = (f"{self.graph.name}: branch node with "
                   f"{len(succs)} successors has no false edge")
        if cond_slot is None and isinstance(cond, Constant):
            chosen = 0 if cond.value != 0 else 1
            if chosen < len(succs):
                self._emit_jump(edge_base + chosen, succs[chosen])
            else:
                self._emit_error(missing)
            return
        if cond_slot is None:
            if isinstance(cond, VirtualReg):
                cond_slot = self.reg_slot(cond.name)
            else:
                self._emit_error(f"cannot read operand {cond!r}")
                return
        if len(succs) >= 2:
            word = self._emit([BR, cond_slot, edge_base, None,
                               edge_base + 1, None])
            self.patches.append((word, 3, succs[0]))
            self.patches.append((word, 5, succs[1]))
            self.edge_class[edge_base] = _EDGE_COUNTED
            self.edge_class[edge_base + 1] = _EDGE_COUNTED
            return
        # One successor: the false leg jumps straight to the error word
        # emitted next (its edge-counter operand reuses the true edge's
        # slot — the run aborts immediately, discarding the profile).
        word = self._emit([BR, cond_slot, edge_base, None,
                           edge_base, len(self.words) + 1])
        self.patches.append((word, 3, succs[0]))
        self.edge_class[edge_base] = _EDGE_COUNTED
        self._emit([ERROR, missing])

    def _emit_return(self, control: Instruction, ret) -> None:
        """*ret* is the operand of a return value read ahead, or
        ``None``."""
        if ret is not None:
            self._emit([RET, ret])
        elif not control.srcs:
            self._emit([RET, None])
        elif self._readable(control.srcs[0]):
            self._emit([RET, self._read(control.srcs[0], checked=True)])

    def _control_prereads(self, node: Node, is_br: bool, is_ret: bool,
                          pre_cycle_only: bool):
        """Capture control operands into scratch before any same-node
        write can land.  ``pre_cycle_only`` limits the capture to nodes
        whose operations write a register the control instruction reads
        (the reordered-direct path); the deferred path always captures.

        The reference reads the return value after the node's operations
        and before its commits.  The deferred path captures it there,
        checked; the direct path captures it ahead of the operations,
        unchecked, and :meth:`lower_node` checks the capture where the
        reference reads it."""
        control = node.control
        cond_slot = None
        ret_slot = None
        if pre_cycle_only:
            dests = {ins.dest.name for ins in node.ops
                     if ins.op is not Op.CHAIN and ins.dest is not None}
            hazard = any(isinstance(src, VirtualReg) and src.name in dests
                         for src in control.srcs)
            if not hazard:
                return None, None
        if is_br and isinstance(control.srcs[0], VirtualReg):
            cond_slot = self._scratch()
            self._emit([TEST, cond_slot,
                        self.reg_slot(control.srcs[0].name)])
        elif is_ret and control.srcs \
                and isinstance(control.srcs[0], VirtualReg):
            ret_slot = self._scratch()
            self._emit([MOV, ret_slot, self._read(
                control.srcs[0], checked=not pre_cycle_only)])
        return cond_slot, ret_slot

    def lower_node(self, nid: int, node: Node) -> None:
        self._scratch_used = 0
        self._node_idx = self.idx_of[nid]
        succs = node.succs
        edge_base = len(self.edge_pairs)
        for succ in succs:
            self.edge_pairs.append((nid, succ))
            self.edge_class.append(_EDGE_ZERO)
        control = node.control
        is_ret = control is not None and control.op is Op.RET
        is_br = control is not None and control.op is Op.BR
        if not is_ret and not is_br and len(succs) != 1:
            # the malformed node raises before executing any of its
            # operations
            self._emit_error(
                f"{self.graph.name}: node {nid} has {len(succs)} "
                f"successors but no branch")
            return
        if is_br and not succs:
            # no successors at all: nothing a branch can ever transfer to
            self._emit_error(
                f"{self.graph.name}: node {nid} branches with "
                f"no successors")
            return

        ops = node.ops
        direct_ops: Optional[List[Instruction]] = ops
        prereads = False
        if self._needs_defer(node):
            direct_ops = self._reorder_for_direct(node)
            prereads = direct_ops is not None

        if direct_ops is not None:
            cond_slot = ret_slot = None
            if prereads and control is not None:
                cond_slot, ret_slot = self._control_prereads(
                    node, is_br, is_ret, pre_cycle_only=True)
            ret_check = None
            if ret_slot is not None:
                ret_check = (ret_slot, control.srcs[0].name)
            for ins in direct_ops:
                if ret_check is not None \
                        and (ins.op is Op.STORE or ins.op is Op.FSTORE):
                    # the reordered stores run last; the reference reads
                    # the return value before it commits any of them
                    self._emit([MOV, ret_slot, ret_check])
                    ret_check = None
                self._emit_op_direct(ins)
            if ret_check is not None:
                ret_slot = ret_check  # the return reads the capture checked
        else:
            pending_regs: List = []
            pending_stores: List = []
            for ins in ops:
                self._emit_op_deferred(ins, pending_regs, pending_stores)
            cond_slot = ret_slot = None
            if control is not None:
                cond_slot, ret_slot = self._control_prereads(
                    node, is_br, is_ret, pre_cycle_only=False)
            self._emit_commits(pending_regs, pending_stores)
        if is_br:
            self._emit_branch(control.srcs[0], cond_slot, edge_base, succs)
        elif is_ret:
            self._emit_return(control, ret_slot)
        else:
            self._emit_jump(edge_base, succs[0])


class _LoweredGraph:
    """One function graph as a flat word list.

    ``entry_word`` is the index of the entry node's first word (``None``
    for a graph without an entry node); ``entry_idx`` is the entry node's
    counter index.
    """

    __slots__ = ("name", "n_params", "param_plan", "local_plan",
                 "global_plan", "missing_plan", "float_slots", "n_regs",
                 "n_arrays", "scratch_watermark", "words", "entry_word",
                 "entry_idx", "node_ids", "edge_pairs", "n_counters",
                 "_in_edges", "_derived_out", "_derived_in_count",
                 "_edge_dst_idx")

    def __init__(self, graph: ProgramGraph, module: GraphModule):
        node_ids: List[int] = list(graph.nodes)
        idx_of = {node_id: i for i, node_id in enumerate(node_ids)}
        low = _WordLowerer(graph, module, idx_of)
        self.name = graph.name
        self.n_params = len(graph.params)
        self.param_plan, self.local_plan = low.build_plans()

        node_word: Dict[int, int] = {}
        for nid in node_ids:
            node_word[nid] = len(low.words)
            low.lower_node(nid, graph.nodes[nid])

        # Dangling edges jump to an "unknown node" stub counted on its own
        # index.
        stubs: Dict[int, Tuple[int, int]] = {}
        n_counters = len(node_ids)
        for word, slot, succ in low.patches:
            target = node_word.get(succ)
            if target is None:
                if succ not in stubs:
                    stubs[succ] = (len(low.words), n_counters)
                    low.words.append([ERROR, f"unknown node {succ}"])
                    n_counters += 1
                target = stubs[succ][0]
            word[slot] = target

        # Profile-reconstruction tables: which counter each edge feeds and
        # which derived edges each node's count propagates to.
        edge_dst_idx: List[int] = []
        in_edges: List[List[int]] = [[] for _ in range(n_counters)]
        derived_out: List[List[int]] = [[] for _ in range(n_counters)]
        derived_in_count = [0] * n_counters
        for e, (src_nid, dst_nid) in enumerate(low.edge_pairs):
            cls = low.edge_class[e]
            if cls == _EDGE_ZERO:
                edge_dst_idx.append(-1)
                continue
            dst_idx = idx_of.get(dst_nid)
            if dst_idx is None:
                dst_idx = stubs[dst_nid][1]
            edge_dst_idx.append(dst_idx)
            in_edges[dst_idx].append(e)
            if cls == _EDGE_DERIVED:
                derived_out[idx_of[src_nid]].append(e)
                derived_in_count[dst_idx] += 1

        self.words = low.words
        self.node_ids = node_ids
        self.edge_pairs = low.edge_pairs
        self.n_counters = n_counters
        self.entry_idx = idx_of.get(graph.entry, -1)
        self.entry_word = node_word.get(graph.entry)
        self.global_plan = low.global_plan
        self.missing_plan = low.missing_plan
        # Element kind of every global and local array slot (``True``:
        # floats), so the generated code coerces stored values without
        # asking the storage; a parameter slot's kind is its argument's.
        self.float_slots = {
            slot: module.global_arrays[gname].is_float
            for slot, gname in low.global_plan}
        self.float_slots.update(
            (slot, symbol.is_float) for slot, symbol in self.local_plan)
        self.n_regs = len(low.reg_slots) + 1 + low.scratch_watermark
        self.n_arrays = len(low.arr_slots)
        # Kept for the code generator: how many scratch (negative) slots
        # the generated source must declare as locals.
        self.scratch_watermark = low.scratch_watermark
        self._in_edges = in_edges
        self._derived_out = derived_out
        self._derived_in_count = derived_in_count
        self._edge_dst_idx = edge_dst_idx

    def resolve_counters(self, branch_hits: List[int],
                         calls: int) -> Tuple[List[int], List[int]]:
        """Reconstruct the full flat (node_hits, edge_hits) arrays from
        the runtime branch-edge counters and the frame-entry count.

        Node executions equal in-edge traversals plus frame arrivals at
        the entry node; fall-through edge traversals equal their source
        node's executions.  Both identities are exact for completed runs
        (an aborted run discards its profile on every engine).  The
        propagation is a worklist over the acyclic derivation graph — a
        cycle would be an all-fall-through CFG loop, which cannot
        terminate, so anything left unresolved was never executed and
        stays zero.
        """
        edge_hits = list(branch_hits)
        node_hits = [0] * self.n_counters
        in_edges = self._in_edges
        derived_out = self._derived_out
        pending = list(self._derived_in_count)
        entry_idx = self.entry_idx
        ready = [i for i in range(self.n_counters) if pending[i] == 0]
        while ready:
            i = ready.pop()
            total = calls if i == entry_idx else 0
            for e in in_edges[i]:
                total += edge_hits[e]
            node_hits[i] = total
            for e in derived_out[i]:
                edge_hits[e] = total
                dst = self._edge_dst_idx[e]
                pending[dst] -= 1
                if pending[dst] == 0:
                    ready.append(dst)
        return node_hits, edge_hits


class LoweredModule:
    """All graphs of one :class:`GraphModule` as word lists.

    It does not keep the module it was lowered from: it lives in that
    module's ``_compiled`` slot, and a reference back would make every
    compiled module a reference cycle that only the cycle collector can
    free.
    """

    def __init__(self, module: GraphModule):
        self.graphs: Dict[str, _LoweredGraph] = {}
        for name, graph in module.graphs.items():
            self.graphs[name] = _LoweredGraph(graph, module)

    @classmethod
    def from_graphs(cls, graphs: Dict[str, _LoweredGraph]
                    ) -> "LoweredModule":
        """Wrap disk-loaded lowered *graphs*: they carry everything
        execution needs (words, frame plans, profile tables)."""
        lowered = cls.__new__(cls)
        lowered.graphs = graphs
        return lowered


def lower_module(module: GraphModule,
                 key: Optional[str] = None) -> LoweredModule:
    """Lowered form of *module*, cached on the module itself.

    The module holds one slot, ``_compiled``: ``(key, lowered,
    generated-or-None)``, keyed by
    :func:`~repro.sim.diskcache.content_key`, the key the disk tier
    files the module's entry under: the stamp its producer derived from
    how it was built, or else :func:`~repro.sim.diskcache.module_digest`.
    Lowering reads nothing of an instruction the digest does not cover,
    so equal content means the same lowered form: the slot is reused
    while the key matches, and on an unstamped module any edit to a
    node, operand or edge misses it (a stamped module is never edited in
    place).  A caller that already holds the key passes it as *key*, so
    the module is not walked again.  The slot is stripped at pickle
    boundaries (``GraphModule.__getstate__``) and rebuilt lazily in each
    worker process.
    """
    if key is None:
        key = content_key(module)
    slot = module.__dict__.get("_compiled")
    if slot is not None and slot[0] == key:
        return slot[1]
    lowered = LoweredModule(module)
    module._compiled = (key, lowered, None)
    return lowered


# -- execution --------------------------------------------------------------------


def run_lowered_module(module: GraphModule, lmod: LoweredModule,
                       max_cycles: int,
                       inputs: Optional[Dict[str, Sequence]],
                       call_entry) -> MachineResult:
    """The run frame around the generated code.

    ``call_entry(entry_name, state)`` runs the entry graph's generated
    function; around it: globals built from initializers and bound to
    *inputs*, branch-only runtime counters sized per graph, node/edge
    profiles reconstructed exactly via
    :meth:`_LoweredGraph.resolve_counters`, and the sparse-in-run /
    exact-post-run cycle-limit check (a bounded overrun that slips past
    the back-edge checks still aborts here, so a run either completes
    within the limit or raises, exactly as on the reference engine).
    """
    globals_: Dict[str, ArrayStorage] = {}
    for name, symbol in module.global_arrays.items():
        init = module.array_initializers.get(name)
        globals_[name] = ArrayStorage(symbol, init)
    if inputs:
        for name, values in inputs.items():
            if name not in globals_:
                raise SimulationError(
                    f"input {name!r} does not match any global array")
            globals_[name].fill_from(values)

    entry = module.entry
    state = _RunState(
        globals_, max_cycles,
        {name: [0] * len(lg.edge_pairs)
         for name, lg in lmod.graphs.items()})
    ret = call_entry(entry.name, state)

    snapshot = {name: storage.snapshot()
                for name, storage in globals_.items()}
    profile = ProfileData()
    for name, lg in lmod.graphs.items():
        node_hits, edge_hits = lg.resolve_counters(
            state.edge_hits[name], state.call_counts.get(name, 0))
        profile.merge_arrays(name, lg.node_ids, node_hits,
                             lg.edge_pairs, edge_hits)
    for name, count in state.call_counts.items():
        profile.call_counts[name] = count
    if profile.total_cycles() > max_cycles:
        raise SimulationError(
            f"cycle limit ({max_cycles}) exceeded; "
            f"infinite loop in {entry.name!r}?")
    return MachineResult(ret, snapshot, profile)

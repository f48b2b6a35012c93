"""Lowering of program graphs to flat word lists.

:class:`~repro.sim.machine.GraphInterpreter` walks the program graph with a
~30-arm opcode dispatch, ``isinstance`` operand checks and two dict mutations
of profile bookkeeping for every node of every simulated cycle.  The
``codegen`` engine (:mod:`repro.sim.codegen`) removes all of that; this
module is its first stage.  :func:`lower_module` flattens each graph into a
list of *words*: integer opcodes with pre-resolved register/array slot
indices and inlined constants, executed in list order, with explicit
``J``/``JB``/``BR`` words naming their targets by word index, and profile
counting reduced to one counter per branch edge.  The generator then emits
one Python function per lowered graph.

The lowered form is cached on the :class:`GraphModule` under the module's
content digest, so repeated runs of the same module pay lowering once;
equal content means the same lowered form.  Words hold no references to
other words, so the lowered form pickles as is into the disk-cache entry.
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
from repro.sim.diskcache import module_digest
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
# Each graph lowers into a flat list of *words*: every instruction is one
# list ``[opcode, operand, ...]`` whose operands are pre-resolved
# register/array slot indices and inlined constants.  Words execute in
# list order: a word that is not a control transfer falls through to the
# word after it, and the transfers (``J``, ``JB``, ``BR``) name their
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

_opcode_ids = itertools.count()


def _op() -> int:
    return next(_opcode_ids)


# Control transfers; ``T`` is a target word index.
BR = _op()           # c e0 T0 e1 T1
J = _op()            # T      (forward jump: no cycle-limit check)
JB = _op()           # T      (backward jump: bumps + checks the limit)
# Deferred-node plumbing (VLIW nodes whose writes must commit after
# reads and cannot be statically reordered).
CP = _op()           # d s          regs[d] = regs[s]
CP2 = _op()          # d1 s1 d2 s2
TEST = _op()         # s c          regs[s] = regs[c] != 0 (pre-commit)
# Value forms.
ADD_RR = _op()       # d a b
ADD_RC = _op()       # d a c
SUB_RR = _op()       # d a b
SUB_RC = _op()       # d a c
MUL_RR = _op()       # d a b
MUL_RC = _op()       # d a c
LOAD = _op()         # d k i
LOADC = _op()        # d k ci
MOV_C = _op()        # d c
MOV_R = _op()        # d a name  (undefined-register check, like the
                     #            reference interpreter's MOV read)
BINF_RR = _op()      # d f a b
BINF_RC = _op()      # d f a c
BINF_CR = _op()      # d f c b
BINF_CC = _op()      # d f c1 c2 (kept runtime: div-by-zero raises only
                     #            when executed)
NEG = _op()          # d a
UNF = _op()          # d f a
UNFC = _op()         # d f c
# Stores: value spec x index spec (R = register slot, C = inline const).
ST_RR = _op()        # k v i
ST_RC = _op()        # k v ci
ST_CR = _op()        # k cv i
ST_CC = _op()        # k cv ci
# Deferred store commits (operands pre-captured in scratch or inline).
STD_SS = _op()       # k i v
STD_SC = _op()       # k i cv
STD_CS = _op()       # k ci v
STD_CC = _op()       # k ci cv
RETREAD = _op()      # s r name  (pre-commit checked read of the return
                     #            register)
INTRN = _op()        # d f specs (generic intrinsic)
CALL = _op()         # callee dspec specs
RET_R = _op()        # r name
RET_C = _op()        # c
RET_N = _op()        # -
RET_S = _op()        # s
ERROR = _op()        # message     raise SimulationError(message)

#: Operand slots holding target word indices, per control transfer.
JUMP_SLOTS = {J: (1,), JB: (1,), BR: (3, 5)}

#: Words that do not fall through to the next word.
TERMINAL_OPS = frozenset({BR, J, JB, RET_R, RET_C, RET_N, RET_S, ERROR})

#: Binary opcodes with dedicated inline arms: op -> (RR form, RC form,
#: commutative).  Commutative const/reg operands fold into the RC form;
#: everything else goes through the generic BINF arms with the function
#: object inlined in the word.
_SPEC_BINARY = {
    Op.ADD: (ADD_RR, ADD_RC, True),
    Op.FADD: (ADD_RR, ADD_RC, True),
    Op.SUB: (SUB_RR, SUB_RC, False),
    Op.FSUB: (SUB_RR, SUB_RC, False),
    Op.MUL: (MUL_RR, MUL_RC, True),
    Op.FMUL: (MUL_RR, MUL_RC, True),
}

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

    # -- per-operation emission ----------------------------------------------------

    def _emit_error(self, message: str) -> int:
        self._emit([ERROR, message])
        return 1

    def _emit_binary(self, op: Op, fn, lhs, rhs, d: int) -> int:
        lhs_reg = isinstance(lhs, VirtualReg)
        rhs_reg = isinstance(rhs, VirtualReg)
        lhs_const = isinstance(lhs, Constant)
        rhs_const = isinstance(rhs, Constant)
        if not (lhs_reg or lhs_const):
            return self._emit_error(f"cannot read operand {lhs!r}")
        if not (rhs_reg or rhs_const):
            return self._emit_error(f"cannot read operand {rhs!r}")
        spec = _SPEC_BINARY.get(op)
        if lhs_reg and rhs_reg:
            a, b = self.reg_slot(lhs.name), self.reg_slot(rhs.name)
            if spec is not None:
                self._emit([spec[0], d, a, b])
            else:
                self._emit([BINF_RR, d, fn, a, b])
        elif lhs_reg:
            a = self.reg_slot(lhs.name)
            if spec is not None:
                self._emit([spec[1], d, a, rhs.value])
            else:
                self._emit([BINF_RC, d, fn, a, rhs.value])
        elif rhs_reg:
            b = self.reg_slot(rhs.name)
            if spec is not None and spec[2]:
                self._emit([spec[1], d, b, lhs.value])
            else:
                self._emit([BINF_CR, d, fn, lhs.value, b])
        else:
            self._emit([BINF_CC, d, fn, lhs.value, rhs.value])
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
            if isinstance(src, VirtualReg):
                if op is Op.NEG or op is Op.FNEG:
                    self._emit([NEG, d, self.reg_slot(src.name)])
                else:
                    self._emit([UNF, d, fn, self.reg_slot(src.name)])
                return 1
            if isinstance(src, Constant):
                self._emit([UNFC, d, fn, src.value])
                return 1
            return self._emit_error(f"cannot read operand {src!r}")
        if op is Op.MOV or op is Op.FMOV:
            src = ins.srcs[0]
            if isinstance(src, Constant):
                self._emit([MOV_C, d, src.value])
                return 1
            if isinstance(src, VirtualReg):
                self._emit([MOV_R, d, self.reg_slot(src.name), src.name])
                return 1
            return self._emit_error(f"cannot read operand {src!r}")
        if op is Op.LOAD or op is Op.FLOAD:
            name = ins.array.name
            if not self.array_is_bound(name):
                return self._emit_error(f"unknown array {name!r}")
            k = self.arr_slot(name)
            index = ins.srcs[0]
            if isinstance(index, VirtualReg):
                self._emit([LOAD, d, k, self.reg_slot(index.name)])
                return 1
            if isinstance(index, Constant):
                self._emit([LOADC, d, k, index.value])
                return 1
            return self._emit_error(f"cannot read operand {index!r}")
        if op is Op.INTRIN:
            return self._emit_intrinsic(ins, d)
        return None

    def _emit_intrinsic(self, ins: Instruction, d: int) -> int:
        impl = INTRINSIC_IMPL.get(ins.callee)
        if impl is None:
            return self._emit_error(f"unknown intrinsic {ins.callee!r}")
        srcs = ins.srcs
        if len(srcs) == 1 and isinstance(srcs[0], VirtualReg):
            self._emit([UNF, d, impl, self.reg_slot(srcs[0].name)])
            return 1
        if len(srcs) == 2 and isinstance(srcs[0], VirtualReg) \
                and isinstance(srcs[1], VirtualReg):
            self._emit([BINF_RR, d, impl, self.reg_slot(srcs[0].name),
                        self.reg_slot(srcs[1].name)])
            return 1
        specs = []
        for src in srcs:
            if isinstance(src, VirtualReg):
                specs.append((0, self.reg_slot(src.name)))
            elif isinstance(src, Constant):
                specs.append((1, src.value))
            else:
                specs.append((2, f"cannot read operand {src!r}"))
        self._emit([INTRN, d, impl, tuple(specs)])
        return 1

    def _emit_store_direct(self, ins: Instruction) -> int:
        name = ins.array.name
        if not self.array_is_bound(name):
            return self._emit_error(f"unknown array {name!r}")
        k = self.arr_slot(name)
        value, index = ins.srcs[0], ins.srcs[1]
        i_reg = isinstance(index, VirtualReg)
        v_reg = isinstance(value, VirtualReg)
        if not i_reg and not isinstance(index, Constant):
            return self._emit_error(f"cannot read operand {index!r}")
        if not v_reg and not isinstance(value, Constant):
            return self._emit_error(f"cannot read operand {value!r}")
        if v_reg and i_reg:
            self._emit([ST_RR, k, self.reg_slot(value.name),
                        self.reg_slot(index.name)])
        elif v_reg:
            self._emit([ST_RC, k, self.reg_slot(value.name), index.value])
        elif i_reg:
            self._emit([ST_CR, k, value.value, self.reg_slot(index.name)])
        else:
            self._emit([ST_CC, k, value.value, index.value])
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

    def _defer_operand(self, operand):
        """(is_const, payload) for a deferred-store operand; register
        values are captured into scratch at read time."""
        if isinstance(operand, Constant):
            return (True, operand.value)
        if isinstance(operand, VirtualReg):
            s = self._scratch()
            self._emit([CP, s, self.reg_slot(operand.name)])
            return (False, s)
        self._emit_error(f"cannot read operand {operand!r}")
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
            ispec = self._defer_operand(ins.srcs[1])
            if ispec is None:
                return
            vspec = self._defer_operand(ins.srcs[0])
            if vspec is None:
                return
            pending_stores.append((k, ispec, vspec))
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
        i = 0
        count = len(pending_regs)
        while count - i >= 2:
            d1, s1 = pending_regs[i]
            d2, s2 = pending_regs[i + 1]
            self._emit([CP2, d1, s1, d2, s2])
            i += 2
        if i < count:
            d, s = pending_regs[i]
            self._emit([CP, d, s])
        for k, (i_const, iv), (v_const, vv) in pending_stores:
            if i_const and v_const:
                self._emit([STD_CC, k, iv, vv])
            elif i_const:
                self._emit([STD_CS, k, iv, vv])
            elif v_const:
                self._emit([STD_SC, k, iv, vv])
            else:
                self._emit([STD_SS, k, iv, vv])

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

    def _emit_return(self, control: Instruction,
                     ret_slot: Optional[int]) -> None:
        if ret_slot is not None:
            self._emit([RET_S, ret_slot])
            return
        if not control.srcs:
            self._emit([RET_N])
            return
        value = control.srcs[0]
        if isinstance(value, Constant):
            self._emit([RET_C, value.value])
        elif isinstance(value, VirtualReg):
            self._emit([RET_R, self.reg_slot(value.name), value.name])
        else:
            self._emit_error(f"cannot read operand {value!r}")

    def _control_prereads(self, node: Node, is_br: bool, is_ret: bool,
                          pre_cycle_only: bool):
        """Capture control operands into scratch before any same-node
        write can land.  ``pre_cycle_only`` limits the capture to nodes
        whose operations write a register the control instruction reads
        (the reordered-direct path); the deferred path always captures."""
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
            self._emit([RETREAD, ret_slot,
                        self.reg_slot(control.srcs[0].name),
                        control.srcs[0].name])
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
            for ins in direct_ops:
                self._emit_op_direct(ins)
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
                 "global_plan", "missing_plan", "n_regs", "n_arrays",
                 "scratch_watermark", "words", "entry_word", "entry_idx",
                 "node_ids", "edge_pairs", "n_counters", "_in_edges",
                 "_derived_out", "_derived_in_count", "_edge_dst_idx")

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
    """All graphs of one :class:`GraphModule` as word lists."""

    def __init__(self, module: GraphModule):
        self.module = module
        self.graphs: Dict[str, _LoweredGraph] = {}
        for name, graph in module.graphs.items():
            self.graphs[name] = _LoweredGraph(graph, module)

    @classmethod
    def from_graphs(cls, module: GraphModule,
                    graphs: Dict[str, _LoweredGraph]) -> "LoweredModule":
        """Rebind disk-loaded lowered *graphs* to the live *module*.

        The graphs carry everything execution needs (words, frame
        plans, profile tables); only the module reference is
        process-local, so it is re-bound to the live module here.
        """
        lowered = cls.__new__(cls)
        lowered.module = module
        lowered.graphs = graphs
        return lowered


def lower_module(module: GraphModule) -> LoweredModule:
    """Lowered form of *module*, cached on the module itself.

    The module holds one slot, ``_compiled``: ``(digest, lowered,
    generated-or-None)``, keyed by
    :func:`~repro.sim.diskcache.module_digest`, the content key the
    disk tier files entries under.  Lowering reads nothing of an
    instruction the digest does not cover, so equal content means the
    same lowered form: the slot is reused while the module's digest
    matches, and any edit to a node, operand or edge misses it.  The
    slot is stripped at pickle boundaries (``GraphModule.__getstate__``)
    and rebuilt lazily in each worker process.
    """
    digest = module_digest(module)
    slot = module.__dict__.get("_compiled")
    if slot is not None and slot[0] == digest:
        return slot[1]
    lowered = LoweredModule(module)
    module._compiled = (digest, lowered, None)
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

"""The three-address instruction.

One :class:`Instruction` is one micro-operation of the machine model:
``dest = op(src1, src2)``, a load/store against an :class:`ArraySymbol`,
a move, a branch, or a call.  Instructions carry a process-wide unique ``uid``
so that the profiler, the optimizer and the sequence analyzer can track a
single operation through cloning (loop unrolling duplicates instructions but
preserves their provenance uid in ``origin``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir import ops as _ops
from repro.ir.ops import LOAD_OPS, STORE_OPS, Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg

_uid_counter = itertools.count(1)


def _next_uid() -> int:
    return next(_uid_counter)


class Instruction:
    """A single three-address operation.

    Parameters
    ----------
    op:
        The opcode.
    dest:
        Destination register, or ``None`` for stores / control flow.
    srcs:
        Source operands (registers or constants).  For loads the single
        source is the index; for stores the sources are ``(value, index)``;
        for ``BR`` the single source is the condition register; for calls
        the sources are the arguments.
    array:
        The :class:`ArraySymbol` referenced by a load/store.
    true_label / false_label:
        Branch targets in *linear* code (``BR`` uses both, ``JMP`` uses
        ``true_label``).  The CFG builder resolves these into edges and the
        fields are ignored afterwards.
    callee:
        Function or intrinsic name for ``CALL`` / ``INTRIN``.
    origin:
        uid of the instruction this one was cloned from (defaults to its own
        uid); used to map profile counts onto unrolled loop bodies.
    """

    __slots__ = ("op", "dest", "srcs", "array", "true_label", "false_label",
                 "callee", "uid", "origin", "loc", "_uses_of", "_uses")

    def __init__(
        self,
        op: Op,
        dest: Optional[VirtualReg] = None,
        srcs: Sequence = (),
        array: Optional[ArraySymbol] = None,
        true_label: Optional[str] = None,
        false_label: Optional[str] = None,
        callee: Optional[str] = None,
        origin: Optional[int] = None,
        loc=None,
    ):
        self.op = op
        self.dest = dest
        self.srcs = tuple(srcs)
        self.array = array
        self.true_label = true_label
        self.false_label = false_label
        self.callee = callee
        self.uid = _next_uid()
        self.origin = origin if origin is not None else self.uid
        self.loc = loc
        self._uses_of = None
        self._check_shape()

    # -- construction helpers -------------------------------------------------

    def _check_shape(self) -> None:
        op = self.op
        if _ops.is_store(op):
            if self.dest is not None:
                raise IRError(f"store must not have a destination: {self}")
            if self.array is None:
                raise IRError("store requires an array symbol")
            if len(self.srcs) != 2:
                raise IRError("store requires (value, index) sources")
        elif _ops.is_load(op):
            if self.dest is None or self.array is None:
                raise IRError("load requires a destination and an array")
            if len(self.srcs) != 1:
                raise IRError("load requires exactly the index source")
        elif op is Op.BR:
            if len(self.srcs) != 1:
                raise IRError("br requires exactly the condition source")
        elif op in (Op.CALL, Op.INTRIN):
            if self.callee is None:
                raise IRError("call requires a callee name")

    def clone(self, reg_map: Optional[Dict[VirtualReg, VirtualReg]] = None,
              label_map: Optional[Dict[str, str]] = None) -> "Instruction":
        """Copy this instruction, optionally renaming registers and labels.

        The copy receives a fresh ``uid`` but inherits this instruction's
        ``origin``, preserving provenance across loop unrolling.
        """
        reg_map = reg_map or {}
        label_map = label_map or {}

        def map_val(v):
            if isinstance(v, VirtualReg):
                return reg_map.get(v, v)
            return v

        return Instruction(
            self.op,
            dest=map_val(self.dest),
            srcs=[map_val(s) for s in self.srcs],
            array=self.array,
            true_label=label_map.get(self.true_label, self.true_label),
            false_label=label_map.get(self.false_label, self.false_label),
            callee=self.callee,
            origin=self.origin,
            loc=self.loc,
        )

    def with_dest(self, new_dest: VirtualReg) -> "Instruction":
        """Copy this instruction with a different destination register."""
        copy = self.clone()
        copy.dest = new_dest
        return copy

    # -- dataflow accessors ----------------------------------------------------

    def uses(self) -> Tuple[VirtualReg, ...]:
        """Registers read by this instruction (in operand order).

        Memoized against the identity of the ``srcs`` tuple it was built
        from: rewriting operands means assigning a new tuple, which
        invalidates the memo without any bookkeeping.
        """
        srcs = self.srcs
        if srcs is not self._uses_of:
            self._uses = tuple(s for s in srcs if isinstance(s, VirtualReg))
            self._uses_of = srcs
        return self._uses

    def defs(self) -> Tuple[VirtualReg, ...]:
        """Registers written by this instruction (empty or a single one)."""
        return (self.dest,) if self.dest is not None else ()

    def replace_uses(self, mapping: Dict[VirtualReg, object]) -> None:
        """Rewrite source operands in place according to *mapping*."""
        self.srcs = tuple(
            mapping.get(s, s) if isinstance(s, VirtualReg) else s
            for s in self.srcs
        )

    # -- predicates ------------------------------------------------------------

    @property
    def kind(self):
        return _ops.kind(self.op)

    @property
    def is_control(self) -> bool:
        return _ops.is_control(self.op)

    @property
    def is_branch(self) -> bool:
        return self.op is Op.BR

    @property
    def is_store(self) -> bool:
        return self.op in STORE_OPS

    @property
    def is_load(self) -> bool:
        return self.op in LOAD_OPS

    @property
    def is_call(self) -> bool:
        return self.op in (Op.CALL, Op.INTRIN)

    @property
    def has_side_effects(self) -> bool:
        return _ops.has_side_effects(self.op)

    @property
    def chain_class(self) -> Optional[str]:
        return _ops.chain_class(self.op)

    # -- display ----------------------------------------------------------------

    def __repr__(self) -> str:
        from repro.ir.printer import format_instruction
        return f"<{format_instruction(self)} #{self.uid}>"

    def __str__(self) -> str:
        from repro.ir.printer import format_instruction
        return format_instruction(self)


def fresh_uids(instrs: Iterable[Instruction]) -> None:
    """Assign brand-new uids (and origins) to *instrs* — used by tests."""
    for ins in instrs:
        ins_uid = _next_uid()
        ins.uid = ins_uid  # type: ignore[misc]
        ins.origin = ins_uid  # type: ignore[misc]

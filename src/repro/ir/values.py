"""Operand model of the three-address code.

Instructions operate on three kinds of values:

* :class:`VirtualReg` — an unbounded supply of typed virtual registers
  (``t17``, ``f4``, named locals like ``i``/``sum``);
* :class:`Constant` — immediate integer / float operands;
* :class:`ArraySymbol` — a named array memory object (the only memory there
  is); loads and stores reference an ArraySymbol plus an index register.

:class:`Label` names join points of the linear code; the CFG builder resolves
them into graph edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class VirtualReg(NamedTuple):
    """A typed virtual register.

    ``name`` is globally unique *within one function*.  ``is_float`` selects
    the register class — the datapath model keeps separate integer and
    floating-point register files, as the TMS320-class processors the paper
    targets do.

    A named tuple rather than a frozen dataclass: registers are hashed and
    compared hundreds of thousands of times per optimized study (use sets,
    liveness sets, reader counts), and tuple hashing and equality run in C.
    The hash is the one the dataclass had, ``hash((name, is_float))``, so
    set iteration order is unchanged, and so are ``repr`` and ``str``.  A
    register compares equal to the plain tuple ``(name, is_float)``; no
    container mixes registers with such tuples.  It stays unequal to a
    :class:`Constant` or :class:`ArraySymbol` with the same fields.
    """

    name: str
    is_float: bool = False

    def __str__(self) -> str:
        return self.name

    @property
    def type_name(self) -> str:
        return "float" if self.is_float else "int"


@dataclass(frozen=True)
class Constant:
    """An immediate operand."""

    value: object  # int or float
    is_float: bool = False

    def __post_init__(self):
        if self.is_float:
            object.__setattr__(self, "value", float(self.value))
        else:
            object.__setattr__(self, "value", int(self.value))

    def __str__(self) -> str:
        return repr(self.value)

    @property
    def type_name(self) -> str:
        return "float" if self.is_float else "int"


@dataclass(frozen=True)
class ArraySymbol:
    """A named array memory object.

    Arrays are the only addressable storage in the machine model.  A
    two-dimensional mini-C array is lowered to a one-dimensional ArraySymbol
    with row-major index arithmetic (which is what exposes the address
    ``add-shift``/``add-load`` sequences the paper reports for ``edge``).
    """

    name: str
    size: int
    is_float: bool = False
    is_global: bool = True

    def __str__(self) -> str:
        return f"@{self.name}[{self.size}]"

    @property
    def type_name(self) -> str:
        return "float" if self.is_float else "int"


@dataclass(frozen=True)
class Label:
    """A join-point name in linear three-address code."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"

"""Scalar semantics of the simulated machine.

Integers follow C: division and modulo truncate toward zero, shifts are
arithmetic.  We deliberately keep Python's unbounded integers (the DSP
benchmarks never rely on 32-bit wraparound) — this matches the paper's
3-address simulator, which modelled word-size-agnostic operations.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError


def int_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    if b == 0:
        raise SimulationError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def int_mod(a: int, b: int) -> int:
    """C-style remainder: ``a == int_div(a, b) * b + int_mod(a, b)``."""
    if b == 0:
        raise SimulationError("integer modulo by zero")
    return a - int_div(a, b) * b


def float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise SimulationError("floating-point division by zero")
    return a / b


def shift_left(a: int, b: int) -> int:
    if b < 0:
        raise SimulationError("negative shift amount")
    return a << b


def shift_right(a: int, b: int) -> int:
    if b < 0:
        raise SimulationError("negative shift amount")
    return a >> b


# Named module-level functions, not lambdas: lowering and code
# generation inline these objects into lowered words and generated-source
# constants, which the disk cache (sim/diskcache.py) pickles — and
# pickle serializes functions by qualified name, which lambdas lack.


def _intrin_sin(a):
    return math.sin(a)


def _intrin_cos(a):
    return math.cos(a)


def _intrin_sqrt(a):
    return math.sqrt(a) if a >= 0 else _domain("sqrt", a)


def _intrin_fabs(a):
    return abs(a)


def _intrin_exp(a):
    return math.exp(a)


def _intrin_log(a):
    return math.log(a) if a > 0 else _domain("log", a)


def _intrin_atan2(a, b):
    return math.atan2(a, b)


def _intrin_pow(a, b):
    return math.pow(a, b)


INTRINSIC_IMPL = {
    "sin": _intrin_sin,
    "cos": _intrin_cos,
    "sqrt": _intrin_sqrt,
    "fabs": _intrin_fabs,
    "exp": _intrin_exp,
    "log": _intrin_log,
    "atan2": _intrin_atan2,
    "pow": _intrin_pow,
    "abs": _intrin_fabs,
}


def _domain(name: str, value) -> float:
    raise SimulationError(f"math domain error: {name}({value})")

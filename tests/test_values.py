"""``VirtualReg`` as a named tuple: hashing, identity and pickling.

Registers are hashed and compared on the optimizer's hot path, so the
class is a ``typing.NamedTuple`` whose hash and equality run in C.  These
tests pin what that representation must keep from the frozen dataclass
it replaced (hash values, hence set order; ``repr``/``str``; inequality
to the other operand kinds) and that registers survive every pickle
boundary the program uses, including the study's worker pool.
"""

import copy
import pickle

import pytest

from repro.exec.pool import get_pool, shutdown_pool
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module
from repro.suite.registry import get_benchmark
from repro.suite.runner import compile_benchmark

REGS = [VirtualReg("t1"), VirtualReg("f4", True), VirtualReg("%t9"),
        VirtualReg("sum", False), VirtualReg("", True)]


@pytest.mark.parametrize("reg", REGS, ids=str)
def test_hash_is_the_field_tuple_hash(reg):
    # The frozen dataclass hashed as hash((name, is_float)); keeping the
    # value keeps every register set's iteration order.
    assert hash(reg) == hash((reg.name, reg.is_float))


def test_repr_str_and_type_name_unchanged():
    reg = VirtualReg("x")
    assert repr(reg) == "VirtualReg(name='x', is_float=False)"
    assert repr(VirtualReg("f", True)) == "VirtualReg(name='f', is_float=True)"
    assert str(reg) == "x"
    assert reg.type_name == "int"
    assert VirtualReg("f", True).type_name == "float"
    assert VirtualReg("x", is_float=False) == VirtualReg("x")


def test_unequal_to_other_operand_kinds_with_same_fields():
    reg = VirtualReg("a")
    others = [ArraySymbol("a", 4), ArraySymbol("a", 0, False),
              Constant(0), Constant(1, True)]
    for other in others:
        assert reg != other and other != reg
    # Distinct keys in one container.
    assert len({reg, *others}) == 1 + len(others)
    assert VirtualReg("3") != Constant(3)


def test_equal_to_the_plain_field_tuple():
    # Documented: a register compares equal to (name, is_float).  No
    # container in the program mixes the two as keys.
    assert VirtualReg("x", True) == ("x", True)
    assert ("x", True) in {VirtualReg("x", True)}


def test_immutable():
    reg = VirtualReg("x")
    with pytest.raises(AttributeError):
        reg.name = "y"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for reg in REGS:
        back = pickle.loads(pickle.dumps(reg, protocol=protocol))
        assert type(back) is VirtualReg
        assert back == reg and hash(back) == hash(reg)


def _register_fields(module):
    return {(fn, type(reg), reg.name, reg.is_float)
            for fn, graph in module.graphs.items()
            for reg in graph.registers()}


def test_module_round_trips_through_worker_pool():
    """A module shipped to a ``jobs=2`` pool worker and back keeps its
    registers as ``VirtualReg`` instances and runs identically."""
    spec = get_benchmark("iir")
    module, _ = optimize_module(compile_benchmark(spec), OptLevel.RENAMED)
    inputs = spec.generate_inputs(0)
    shutdown_pool()
    try:
        back = get_pool(2).submit(copy.copy, module).result(timeout=120)
    finally:
        shutdown_pool()
    assert back is not module
    assert _register_fields(back) == _register_fields(module)
    want, got = run_module(module, inputs), run_module(back, inputs)
    assert (got.cycles, got.return_value, got.globals_after) == \
        (want.cycles, want.return_value, want.globals_after)

"""Property-based differential fuzzing of the five simulation engines.

With five engines that must stay bit-identical, per-PR hand-written
differential tests stop scaling; this harness is the standing
equivalence oracle.  A seeded generator emits random mini-C programs
mixing the shapes the engines specialize on — arithmetic (including the
C-truncation division/modulo and shifts), memory traffic, branches,
nested loops and function calls — compiles each at optimization levels
0/1/2 (so post-opt graphs with compaction, percolation and pipelining
run too), and asserts that the reference interpreter, the compiled
closure engine, the bytecode tier, the exec-compiled codegen tier and
the lane-parallel tier produce identical outputs, cycle counts and
fully resolved profiles.  Programs that fault must fault *identically*
on every engine.  A cross-level leg checks the optimizer itself: on the
reference interpreter, levels 1 and 2 must compute what level 0 computes.

The lane tier additionally runs every case at batch widths 2, 4 and 9:
generated programs are closed (no external inputs), so every lane of
any width must reproduce the single-seed reference outcome —
per lane, including the fault message when the program traps.

The corpus is bounded for CI and deterministic (``REPRO_FUZZ_SEED``);
set ``REPRO_FUZZ_CASES`` to widen it locally, e.g.::

    REPRO_FUZZ_CASES=500 pytest tests/test_fuzz_engines.py
"""

import os
import random

import pytest

from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.lanes import LaneEngine
from repro.sim.machine import ENGINES, run_module

#: Cases per CI run; widen locally via the environment.
CASES = int(os.environ.get("REPRO_FUZZ_CASES", "25"))
BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1995"))
LEVELS = (0, 1, 2)
LANE_WIDTHS = (2, 4, 9)


class ProgramGen:
    """Seeded random mini-C program generator.

    Every program is closed (no external inputs): arrays are filled by a
    deterministic seeding loop, so a program's behavior is a pure
    function of its source and the engines can be compared on outputs
    alone.  All loops have constant trip counts and all array indices
    are loop variables bounded by the array size or literals inside it,
    so generated programs terminate; faults (division traps cannot occur
    by construction, but overflow-free index arithmetic is *not*
    guaranteed under optimization) are tolerated as long as every engine
    faults identically.
    """

    def __init__(self, rng: random.Random, with_call: bool):
        self.rng = rng
        self.with_call = with_call
        self.arrays = []  # (name, size)
        self.scalars = []
        self.loop_depth = 0
        self.loop_vars = []  # (name, bound) currently in scope
        self.lines = []
        self.indent = 1
        self.next_loop = 0

    def emit(self, text):
        self.lines.append("    " * self.indent + text)

    # -- expressions ---------------------------------------------------------------

    def atom(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.3 and self.scalars:
            return rng.choice(self.scalars)
        if roll < 0.5 and self.loop_vars:
            return rng.choice(self.loop_vars)[0]
        if roll < 0.75 and self.arrays:
            name, size = rng.choice(self.arrays)
            return f"{name}[{self.index(size)}]"
        return str(rng.randint(-20, 20))

    def index(self, size):
        """An index expression guaranteed in ``[0, size)``."""
        rng = self.rng
        fitting = [v for v, bound in self.loop_vars if bound <= size]
        if fitting and rng.random() < 0.7:
            return rng.choice(fitting)
        return str(rng.randrange(size))

    def expr(self, depth=0):
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            return self.atom()
        a = self.expr(depth + 1)
        b = self.expr(depth + 1)
        op = rng.choice(("+", "-", "*", "&", "|", "^",
                         "/", "%", "<<", ">>",
                         "<", "<=", ">", ">=", "==", "!="))
        if op in ("/", "%"):
            return f"({a} {op} (({b}) | 1))"  # never a zero denominator
        if op in ("<<", ">>"):
            return f"(({a}) {op} {rng.randrange(4)})"
        if op == "*":
            # keep one factor small so nested loops cannot blow values
            # up into pathological bigints
            return f"(({a}) * {rng.randint(-6, 6)})"
        return f"(({a}) {op} ({b}))"

    # -- statements ----------------------------------------------------------------

    def assign(self):
        rng = self.rng
        if self.arrays and rng.random() < 0.45:
            name, size = rng.choice(self.arrays)
            self.emit(f"{name}[{self.index(size)}] = {self.expr()};")
        elif self.scalars:
            dest = rng.choice(self.scalars)
            op = rng.choice(("=", "+=", "-=", "^=", "="))
            self.emit(f"{dest} {op} {self.expr()};")

    def if_else(self, budget):
        self.emit(f"if ({self.expr()}) {{")
        self.indent += 1
        self.block(budget)
        self.indent -= 1
        if self.rng.random() < 0.6:
            self.emit("} else {")
            self.indent += 1
            self.block(budget)
            self.indent -= 1
        self.emit("}")

    def for_loop(self, budget):
        var = f"i{self.next_loop}"
        self.next_loop += 1
        bound = self.rng.randint(2, 6)
        self.emit(f"for ({var} = 0; {var} < {bound}; {var}++) {{")
        self.indent += 1
        self.loop_depth += 1
        self.loop_vars.append((var, bound))
        self.block(budget)
        self.loop_vars.pop()
        self.loop_depth -= 1
        self.indent -= 1
        self.emit("}")

    def while_loop(self, budget):
        var = f"i{self.next_loop}"
        self.next_loop += 1
        bound = self.rng.randint(2, 5)
        self.emit(f"{var} = {bound};")
        self.emit(f"while ({var} > 0) {{")
        self.indent += 1
        self.loop_depth += 1
        self.block(budget)
        self.emit(f"{var} = {var} - 1;")
        self.loop_depth -= 1
        self.indent -= 1
        self.emit("}")

    def call_stmt(self):
        dest = self.rng.choice(self.scalars)
        self.emit(f"{dest} = helper({self.expr(1)}, {self.expr(1)});")

    def block(self, budget):
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.18 and budget > 0 and self.loop_depth < 2:
                self.for_loop(budget - 1)
            elif roll < 0.26 and budget > 0 and self.loop_depth < 2:
                self.while_loop(budget - 1)
            elif roll < 0.45 and budget > 0:
                self.if_else(budget - 1)
            elif roll < 0.55 and self.with_call and self.scalars:
                self.call_stmt()
            else:
                self.assign()

    # -- whole program -------------------------------------------------------------

    def generate(self) -> str:
        rng = self.rng
        self.arrays = [(f"a{i}", rng.randint(3, 9))
                       for i in range(rng.randint(1, 3))]
        self.scalars = [f"s{i}" for i in range(rng.randint(2, 4))]
        header = [f"int {name}[{size}];" for name, size in self.arrays]
        if self.with_call:
            header.append(
                "int helper(int x, int y) {\n"
                "    return ((x ^ y) + (x & 15)) - (y >> 1);\n"
                "}")
        body = self.lines
        self.emit("int chk;")
        max_loops = 12  # upper bound on loop-var declarations
        for i in range(max_loops):
            self.emit(f"int i{i};")
        for name in self.scalars:
            self.emit(f"int {name};")
        for name in self.scalars:
            self.emit(f"{name} = {rng.randint(-8, 8)};")
        # deterministic array seeding
        for name, size in self.arrays:
            var, bound = "i0", size
            self.emit(f"for ({var} = 0; {var} < {bound}; {var}++) {{")
            self.emit(f"    {name}[{var}] = ({var} * "
                      f"{rng.randint(1, 7)}) - {rng.randint(0, 9)};")
            self.emit("}")
        self.loop_vars = []
        self.block(budget=2)
        # checksum every array and scalar into the return value
        self.emit("chk = 0;")
        for name, size in self.arrays:
            self.emit(f"for (i0 = 0; i0 < {size}; i0++) {{")
            self.emit(f"    chk = (chk * 31 + {name}[i0]) % 100003;")
            self.emit("}")
        for name in self.scalars:
            self.emit(f"chk = chk ^ {name};")
        self.emit("return chk;")
        assert self.next_loop <= max_loops
        return "\n".join(header
                         + ["int main() {"] + body + ["}"])


def generate_case(case: int) -> str:
    rng = random.Random(BASE_SEED * 1_000_003 + case)
    return ProgramGen(rng, with_call=case % 2 == 1).generate()


def run_one(gm, engine):
    """(outcome, payload): completed results or the identical fault."""
    try:
        result = run_module(gm, engine=engine)
    except SimulationError as exc:
        return ("error", str(exc))
    return ("ok", result)


def assert_outcome_matches(outcome, reference, ctx):
    """One engine outcome vs the reference oracle's, faults included."""
    kind, payload = outcome
    assert kind == reference[0], (
        f"{ctx}: {kind} vs reference {reference[0]} ({payload})")
    if kind == "error":
        assert payload == reference[1], ctx
        return
    expected = reference[1]
    assert payload.return_value == expected.return_value, ctx
    assert payload.globals_after == expected.globals_after, ctx
    assert payload.cycles == expected.cycles, ctx
    assert payload.profile.node_counts == \
        expected.profile.node_counts, ctx
    assert payload.profile.edge_counts == \
        expected.profile.edge_counts, ctx
    assert payload.profile.call_counts == \
        expected.profile.call_counts, ctx


@pytest.mark.parametrize("case", range(CASES))
def test_engines_agree(case):
    source = generate_case(case)
    module = compile_source(source, f"fuzz{case}", filename=f"fuzz{case}.c")
    for level in LEVELS:
        gm, _ = optimize_module(module, OptLevel(level))
        outcomes = {engine: run_one(gm, engine) for engine in ENGINES}
        reference = outcomes["reference"]
        for engine in ENGINES:
            assert_outcome_matches(outcomes[engine], reference,
                                   f"case {case} level {level}: {engine}")


@pytest.mark.parametrize("case", range(CASES))
def test_lanes_agree_at_every_width(case):
    """Each lane of a 2/4/9-wide batch reproduces the single-seed
    reference outcome bit for bit (programs are closed, so all lanes
    share the one well-defined behavior — including faults)."""
    source = generate_case(case)
    module = compile_source(source, f"fuzz{case}", filename=f"fuzz{case}.c")
    for level in LEVELS:
        gm, _ = optimize_module(module, OptLevel(level))
        reference = run_one(gm, "reference")
        for width in LANE_WIDTHS:
            outcomes = LaneEngine(gm).run_batch_outcomes([None] * width)
            assert len(outcomes) == width
            for lane, outcome in enumerate(outcomes):
                assert_outcome_matches(
                    outcome, reference,
                    f"case {case} level {level} width {width} lane {lane}")


@pytest.mark.parametrize("case", range(CASES))
def test_levels_agree(case):
    """The optimizer preserves semantics: on the reference oracle, levels
    1 and 2 return the same value and leave the same memory as level 0,
    or all three levels fault (the fault's cycle may differ by level)."""
    source = generate_case(case)
    module = compile_source(source, f"fuzz{case}", filename=f"fuzz{case}.c")
    outcomes = {
        level: run_one(optimize_module(module, OptLevel(level))[0],
                       "reference")
        for level in LEVELS
    }
    kind, baseline = outcomes[0]
    for level in LEVELS[1:]:
        got_kind, got = outcomes[level]
        ctx = f"case {case} level {level} vs level 0"
        assert got_kind == kind, f"{ctx}: {got_kind} vs {kind} ({got})"
        if kind == "ok":
            assert got.return_value == baseline.return_value, ctx
            assert got.globals_after == baseline.globals_after, ctx


def test_generator_is_deterministic():
    """The corpus is reproducible: same seed, same programs."""
    assert generate_case(3) == generate_case(3)


def test_generator_covers_shapes():
    """Across the CI corpus the generator exercises every shape class
    the engines specialize on (loops, branches, memory, calls)."""
    sources = [generate_case(case) for case in range(max(CASES, 10))]
    assert any("for (" in src for src in sources)
    assert any("while (" in src for src in sources)
    assert any("if (" in src for src in sources)
    assert any("helper(" in src for src in sources)
    assert all("[" in src for src in sources)

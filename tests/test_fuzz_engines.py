"""Property-based differential fuzzing of the two simulation engines.

A seeded generator emits random mini-C programs mixing the shapes the
engines specialize on — arithmetic (including the C-truncation
division/modulo and shifts), memory traffic, branches, nested loops and
function calls — compiles each at optimization levels 0/1/2 (so post-opt
graphs with compaction, percolation and pipelining run too), and asserts
that the reference interpreter and the exec-compiled codegen engine
produce identical outputs, cycle counts and fully resolved profiles.

Programs that fault must fault *identically* — the same
``SimulationError`` text — on both engines, and a share of the corpus is
built to fault: a division whose divisor is read from a data array and is
zero for some elements, an index read from a data array that lands past
the end of its target, or a cycle limit below the program's run time.
``test_corpus_faults`` keeps that share from silently dropping to zero.
A cross-level leg checks the optimizer itself: on the reference
interpreter, levels 1 and 2 must compute what level 0 computes, and a
frozen-pass leg holds percolation at levels 1 and 2 to the frozen
set-based compaction pass of ``tests/test_percolation.py`` (same
graphs, same statistics), and a shared-prefix leg holds levels 1 and 2
built from one optimizer prefix to independent optimizations
(``tests/test_shared_prefix.py``).  A resequence leg checks the single-issue
base every ASIP design is measured on: the re-sequentialized level-1/2
module must compute what the optimized module computes, on both
engines.

Generated programs are closed (no external inputs), so every seed of a
multi-seed batch must reproduce the single-run reference outcome; the
batch leg runs each case at widths 2, 4 and 9.

A case without a cycle limit of its own runs its level-1/2 and
resequenced modules under one derived from its level-0 run
(:func:`later_limit`), so a miscompiled loop stops at that limit
instead of running to the simulator's default one.  The cross-level leg
comes first: it reports such a loop as a failure at its first case where
level 0 completes, while the engine legs see both engines hit the same
limit and pass, after a long run on each case where level 0 faults.

The corpus is bounded for CI and deterministic (``REPRO_FUZZ_SEED``);
set ``REPRO_FUZZ_CASES`` to widen it locally, e.g.::

    REPRO_FUZZ_CASES=500 pytest tests/test_fuzz_engines.py
"""

import os
import random
import re
from typing import NamedTuple, Optional

import pytest

from repro.asip.resequence import resequence_module
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.opt import percolation
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import ENGINES, run_module, run_module_batch

from tests.test_percolation import frozen_compaction_pass, regen
from tests.test_shared_prefix import assert_matches_per_level

#: Cases per CI run; widen locally via the environment.
CASES = int(os.environ.get("REPRO_FUZZ_CASES", "25"))
BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1995"))
LEVELS = (0, 1, 2)
LANE_WIDTHS = (2, 4, 9)
#: Least share of the corpus whose level-0 run must fault.
MIN_FAULT_SHARE = 0.10
#: Literal divisors of ``/`` and ``%``: both signs, never zero.
LITERAL_DIVISORS = [k for k in range(-9, 10) if k]


class ProgramGen:
    """Seeded random mini-C program generator.

    Every program is closed (no external inputs): arrays are filled by a
    deterministic seeding loop, so a program's behavior is a pure
    function of its source and the engines can be compared on outputs
    alone.  All loops have constant trip counts and the random body's
    array indices are loop variables bounded by the array size or
    literals inside it, so generated programs terminate.

    A second generator, *frng*, decides the program's fault shape (see
    :meth:`fault_site`); the random body draws only from *rng*, so the
    fault shapes leave the rest of each program unchanged.
    """

    def __init__(self, rng: random.Random, with_call: bool,
                 frng: Optional[random.Random] = None):
        self.rng = rng
        self.frng = frng or random.Random(0)
        self.with_call = with_call
        #: Cycle limit of the tight-limit shape; ``None`` otherwise.
        self.max_cycles: Optional[int] = None
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
            if rng.random() < 0.5:
                # a literal divisor, which the generated code inlines
                divisor = rng.choice(LITERAL_DIVISORS)
                return f"(({a}) {op} {divisor})"
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

    # -- fault shapes --------------------------------------------------------------

    def fault_site(self):
        """Declarations, seeding and statements of one fault shape.

        The shape reads a data array ``d`` (``d[i] = i * m - c``, never
        written by the random body) and folds what it computes into the
        accumulator ``f``, which the checksum consumes, so no optimizer
        level may drop it:

        * ``div`` — ``f += s / (d[i] - K)`` in a loop; ``K`` equals one
          ``d[i]`` the loop reaches, or none of them;
        * ``oob`` — ``f += a[d[i] - K]`` in a loop, running off the end
          of ``a`` for some ``m``, ``K`` and trip counts;
        * ``limit`` — a cycle limit below the run time of most programs.

        Returns ``(header, seeding, statements)`` source lines.
        """
        frng = self.frng
        roll = frng.random()
        if roll < 0.15:
            shape = "div"
        elif roll < 0.30:
            shape = "oob"
        elif roll < 0.40:
            shape = "limit"
        else:
            return [], [], []
        if shape == "limit":
            self.max_cycles = frng.randint(40, 400)
            return [], [], []
        size = frng.randint(3, 8)
        m, c = frng.randint(1, 4), frng.randint(0, 6)
        trips = frng.randint(2, size)
        header = [f"int d[{size}];"]
        seeding = ["f = 0;",
                   f"for (i0 = 0; i0 < {size}; i0++) {{",
                   f"    d[i0] = (i0 * {m}) - {c};",
                   "}"]
        if shape == "div":
            if frng.random() < 0.6:
                k = frng.randrange(trips) * m - c
            else:
                k = size * m - c + frng.randint(1, 5)
            value = f"({frng.choice(self.scalars)} + {frng.randint(1, 9)})"
            body = f"    f = f + ({value} / (d[i0] - {k}));"
        else:
            name, target = frng.choice(self.arrays)
            k = -c - frng.randrange(target)
            body = f"    f = f + {name}[d[i0] - {k}];"
        statements = [f"for (i0 = 0; i0 < {trips}; i0++) {{", body, "}"]
        return header, seeding, statements

    # -- whole program -------------------------------------------------------------

    def generate(self) -> str:
        rng = self.rng
        self.arrays = [(f"a{i}", rng.randint(3, 9))
                       for i in range(rng.randint(1, 3))]
        self.scalars = [f"s{i}" for i in range(rng.randint(2, 4))]
        fault_header, fault_seeding, fault_statements = self.fault_site()
        header = [f"int {name}[{size}];" for name, size in self.arrays]
        header += fault_header
        if self.with_call:
            header.append(
                "int helper(int x, int y) {\n"
                "    return ((x ^ y) + (x & 15)) - (y >> 1);\n"
                "}")
        body = self.lines
        self.emit("int chk;")
        if fault_header:
            self.emit("int f;")
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
        for line in fault_seeding:
            self.emit(line)
        self.loop_vars = []
        self.block(budget=2)
        for line in fault_statements:
            self.emit(line)
        # checksum every array and scalar into the return value
        self.emit("chk = 0;")
        for name, size in self.arrays:
            self.emit(f"for (i0 = 0; i0 < {size}; i0++) {{")
            self.emit(f"    chk = (chk * 31 + {name}[i0]) % 100003;")
            self.emit("}")
        for name in self.scalars:
            self.emit(f"chk = chk ^ {name};")
        if fault_header:
            self.emit("chk = chk ^ f;")
        self.emit("return chk;")
        assert self.next_loop <= max_loops
        return "\n".join(header
                         + ["int main() {"] + body + ["}"])


class Case(NamedTuple):
    source: str
    #: Cycle limit the engines run this case under (``None``: default).
    max_cycles: Optional[int]


def generate_case(case: int) -> Case:
    rng = random.Random(BASE_SEED * 1_000_003 + case)
    frng = random.Random(BASE_SEED * 7_919 + case)
    gen = ProgramGen(rng, with_call=case % 2 == 1, frng=frng)
    source = gen.generate()
    return Case(source, gen.max_cycles)


def compile_case(case: int):
    fuzz = generate_case(case)
    module = compile_source(fuzz.source, f"fuzz{case}",
                            filename=f"fuzz{case}.c")
    return module, fuzz.max_cycles


def run_one(gm, engine, max_cycles=None):
    """(outcome, payload): completed results or the identical fault."""
    kwargs = {} if max_cycles is None else {"max_cycles": max_cycles}
    try:
        result = run_module(gm, engine=engine, **kwargs)
    except SimulationError as exc:
        return ("error", str(exc))
    return ("ok", result)


def later_limit(max_cycles, level0) -> int:
    """The cycle limit of a case's level-1/2 and resequenced runs.

    A case's own limit (the cycle-limit shape) is kept.  Otherwise the
    limit is ten times the level-0 outcome *level0*'s cycles plus
    10,000, or 1,000,000 if level 0 faults.  On the CI corpus
    (``REPRO_FUZZ_SEED=1995``, 150 cases) level 0 runs at most 1,024
    cycles, levels 1/2 at most 0.62 times their level 0 and resequenced
    modules at most 1.57 times.
    """
    if max_cycles is not None:
        return max_cycles
    kind, payload = level0
    return 10 * payload.cycles + 10_000 if kind == "ok" else 1_000_000


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
def test_levels_agree(case):
    """The optimizer preserves semantics: on the reference oracle, levels
    1 and 2 return the same value and leave the same memory as level 0,
    or all three levels fault (the fault's cycle may differ by level).
    The case's own cycle limit is not applied, so level 0 runs to
    completion and levels 1/2 run under the limit derived from it."""
    module, _max_cycles = compile_case(case)
    outcomes = {0: run_one(optimize_module(module, OptLevel.NONE)[0],
                           "reference")}
    limit = later_limit(None, outcomes[0])
    for level in LEVELS[1:]:
        outcomes[level] = run_one(
            optimize_module(module, OptLevel(level))[0], "reference", limit)
    kind, baseline = outcomes[0]
    for level in LEVELS[1:]:
        got_kind, got = outcomes[level]
        ctx = f"case {case} level {level} vs level 0"
        assert got_kind == kind, f"{ctx}: {got_kind} vs {kind} ({got})"
        if kind == "ok":
            assert got.return_value == baseline.return_value, ctx
            assert got.globals_after == baseline.globals_after, ctx


@pytest.mark.parametrize("case", range(CASES))
def test_engines_agree(case):
    module, max_cycles = compile_case(case)
    limit = max_cycles
    for level in LEVELS:
        gm, _ = optimize_module(module, OptLevel(level))
        outcomes = {engine: run_one(gm, engine, limit)
                    for engine in ENGINES}
        reference = outcomes["reference"]
        for engine in ENGINES:
            assert_outcome_matches(outcomes[engine], reference,
                                   f"case {case} level {level}: {engine}")
        if level == 0:
            limit = later_limit(max_cycles, reference)


@pytest.mark.parametrize("case", range(CASES))
def test_lanes_agree_at_every_width(case):
    """Each run of a 2/4/9-wide codegen batch reproduces the single-run
    reference outcome bit for bit (programs are closed, so all runs share
    the one well-defined behavior; a faulting batch raises the fault of
    its first run)."""
    module, max_cycles = compile_case(case)
    limit = max_cycles
    for level in LEVELS:
        gm, _ = optimize_module(module, OptLevel(level))
        reference = run_one(gm, "reference", limit)
        kwargs = {} if limit is None else {"max_cycles": limit}
        for width in LANE_WIDTHS:
            try:
                outcomes = [("ok", result) for result in run_module_batch(
                    gm, [None] * width, engine="codegen", **kwargs)]
                assert len(outcomes) == width
            except SimulationError as exc:
                outcomes = [("error", str(exc))]
            for lane, outcome in enumerate(outcomes):
                assert_outcome_matches(
                    outcome, reference,
                    f"case {case} level {level} width {width} lane {lane}")
        if level == 0:
            limit = later_limit(max_cycles, reference)


@pytest.mark.parametrize("case", range(CASES))
def test_compaction_matches_frozen_pass(case, monkeypatch):
    """Percolation at levels 1 and 2 makes the moves the frozen set-based
    compaction pass makes: the same rendered graphs and the same
    compaction statistics per function."""
    module, _max_cycles = compile_case(case)
    for level in LEVELS[1:]:
        gm, report = optimize_module(module, OptLevel(level))
        with monkeypatch.context() as m:
            m.setattr(percolation, "_compaction_pass",
                      frozen_compaction_pass)
            want_gm, want_report = optimize_module(module, OptLevel(level))
        ctx = f"case {case} level {level}"
        assert report.compaction == want_report.compaction, ctx
        assert {name: regen.render_graph(graph)
                for name, graph in gm.graphs.items()} == \
            {name: regen.render_graph(graph)
             for name, graph in want_gm.graphs.items()}, ctx


@pytest.mark.parametrize("case", range(CASES))
def test_shared_prefix_matches_per_level(case):
    """Levels 1 and 2 finished from one shared optimizer prefix, as the
    study matrix builds them, equal independent optimizations: module
    digest, report, node and temp counters and rendered graphs."""
    module, _max_cycles = compile_case(case)
    assert_matches_per_level(module, f"case {case}")


@pytest.mark.parametrize("case", range(CASES))
def test_resequenced_agrees(case):
    """Flattening a level-1/2 module to one operation per node preserves
    what it computes: where the optimized module completes on the
    reference oracle, the resequenced module returns the same value and
    leaves the same memory on both engines.  The tight-cycle-limit shape
    is skipped: the sequential program runs more cycles by design."""
    module, max_cycles = compile_case(case)
    if max_cycles is not None:
        pytest.skip("cycle-limit shape")
    limit = later_limit(None, run_one(
        optimize_module(module, OptLevel.NONE)[0], "reference"))
    for level in LEVELS[1:]:
        gm, _ = optimize_module(module, OptLevel(level))
        kind, expected = run_one(gm, "reference", limit)
        if kind != "ok":
            continue
        flat = resequence_module(gm)
        for engine in ENGINES:
            got_kind, got = run_one(flat, engine, limit)
            ctx = f"case {case} level {level} resequenced: {engine}"
            assert got_kind == "ok", f"{ctx}: {got}"
            assert got.return_value == expected.return_value, ctx
            assert got.globals_after == expected.globals_after, ctx


def test_generator_is_deterministic():
    """The corpus is reproducible: same seed, same programs."""
    assert generate_case(3) == generate_case(3)


def test_generator_covers_shapes():
    """Across the CI corpus the generator exercises every shape class
    the engines specialize on (loops, branches, memory, calls) and every
    fault shape."""
    cases = [generate_case(case) for case in range(max(CASES, 25))]
    sources = [fuzz.source for fuzz in cases]
    assert any("for (" in src for src in sources)
    assert any("while (" in src for src in sources)
    assert any("if (" in src for src in sources)
    assert any("helper(" in src for src in sources)
    assert all("[" in src for src in sources)
    assert any("/ (d[i0] - " in src for src in sources)
    assert any(re.search(r"\) / -?[1-9]\)", src) for src in sources)
    assert any(re.search(r"\) % -?[1-9]\)", src) for src in sources)
    assert any("[d[i0] - " in src for src in sources)
    assert any(fuzz.max_cycles is not None for fuzz in cases)


def test_corpus_faults():
    """The fault-parity legs above are not vacuous: at least
    :data:`MIN_FAULT_SHARE` of the corpus faults at level 0."""
    faults = 0
    for case in range(CASES):
        module, max_cycles = compile_case(case)
        gm, _ = optimize_module(module, OptLevel.NONE)
        faults += run_one(gm, "reference", max_cycles)[0] == "error"
    assert faults >= MIN_FAULT_SHARE * CASES, f"{faults} of {CASES}"

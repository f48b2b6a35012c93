"""Compiled-artifact checks: a cached entry is compared, not re-analysed.

Under ``REPRO_VERIFY=1`` every codegen entry served from disk is compared
with a fresh generation of its module, and the code that runs is
compiled from the fresh sources.  Each mutation test below seeds one
corruption into a cached entry — a lowered word, a stored source line, a
constant table, a code blob, another module's entry — and asserts that
the gate rejects and re-stores the entry, since any part a later load
reads differs, and that the served run equals the reference engine's.  The
determinism lint, the IR call-site verifier, the CFG the range analysis
walks and the ``repro verify`` surface are covered at the end.
"""

from __future__ import annotations

import hashlib
import marshal
import pickle

import pytest

from repro.analysis import VerifyResult
from repro.analysis.cfg import build_word_cfg
from repro.analysis.lint import lint_determinism, lint_source
from repro.analysis.sweep import render_markdown, run_sweep, scan_cache_entries
from repro.errors import IRError
from repro.frontend import compile_source
from repro.ir.function import Function
from repro.ir.instr import Instruction
from repro.ir.module import Module
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.ir.verify import verify_function
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import engine as _eng
from repro.sim import diskcache
from repro.sim.codegen import generate_module
from repro.sim.engine import lower_module
from repro.sim.machine import run_module

# Same kernels as tests/conftest.py (duplicated here rather than imported:
# `from conftest import ...` is ambiguous when the benchmark harness's
# conftest is also on the collection path).
FIR_LIKE_SOURCE = """
float x[40];
float h[8];
float y[40];
int n = 40;
int taps = 8;

int main() {
    int i; int k;
    for (i = 0; i < n; i++) {
        float acc;
        acc = 0.0;
        for (k = 0; k < taps; k++) {
            if (i - k >= 0) {
                acc += h[k] * x[i - k];
            }
        }
        y[i] = acc;
    }
    return 0;
}
"""

FIR_INPUTS = {"x": [float(i % 7) - 2.5 for i in range(40)],
              "h": [0.5, -1.0, 0.25, 2.0, -0.75, 1.5, 0.125, -2.0]}

INT_KERNEL_SOURCE = """
int x[64];
int y[64];
int n = 64;

int main() {
    int i;
    y[0] = x[0];
    for (i = 1; i < n - 1; i++) {
        int acc;
        acc = x[i - 1] + 3 * x[i] + x[i + 1];
        y[i] = acc >> 2;
    }
    y[n - 1] = x[n - 1];
    return 0;
}
"""

INT_INPUTS = {"x": [(i * 37) % 101 - 50 for i in range(64)]}

# Two modules that differ only in which array one load reads.
X_LOAD_SOURCE = """
int x[4];
int z[4];

int main() {
    return x[1];
}
"""

Z_LOAD_SOURCE = X_LOAD_SOURCE.replace("return x[1]", "return z[1]")

XZ_INPUTS = {"x": [1, 2, 3, 4], "z": [5, 6, 7, 8]}


#: The int kernel with a modulo and a division by a register, whose
#: generated code calls two bound helpers (``int_mod``, ``int_div``).
HELPER_KERNEL_SOURCE = INT_KERNEL_SOURCE.replace("acc >> 2",
                                                 "(acc % 5) + (acc / n)")


def _graph_module(source=FIR_LIKE_SOURCE, level=1):
    module = compile_source(source)
    gm, _ = optimize_module(module, OptLevel(level))
    return gm


def _invariants(result: VerifyResult):
    return {v.invariant for v in result.violations}


def _projection(result):
    return (result.return_value, result.globals_after, result.cycles,
            result.profile.node_counts, result.profile.edge_counts,
            result.profile.call_counts)


# -- disk cache: verify-on-load ----------------------------------------------------


@pytest.fixture
def verified_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
    monkeypatch.setenv(diskcache.VERIFY_ENV_VAR, "1")
    diskcache.reset_cache_state()
    yield tmp_path
    diskcache.reset_cache_state()


def _entry_paths(kind):
    cache = diskcache.get_cache()
    return [path for k, path in cache.entries() if k == kind]


def _rewrite(path, mutate):
    with open(path, "rb") as fh:
        entry = pickle.load(fh)
    mutate(entry["payload"])
    with open(path, "wb") as fh:
        pickle.dump(entry, fh)


def _serve_tampered(mutate, source=FIR_LIKE_SOURCE, inputs=FIR_INPUTS,
                    level=1):
    """Publish *source*'s codegen entry, apply *mutate* to its stored
    payload, then serve the module again in a fresh cache handle under
    the gate.  Returns the handle, the served run and the reference
    engine's run."""
    generate_module(_graph_module(source, level))
    [path] = _entry_paths("codegen")
    _rewrite(path, mutate)
    diskcache.reset_cache_state()
    served = run_module(_graph_module(source, level), inputs,
                        engine="codegen")
    reference = run_module(_graph_module(source, level), inputs,
                           engine="reference")
    cache = diskcache.get_cache()
    assert cache.hits["codegen"] + cache.rejected["codegen"] == 1
    return cache, _projection(served), _projection(reference)


def _assert_rejected(mutate, **kwargs):
    cache, served, reference = _serve_tampered(mutate, **kwargs)
    assert cache.rejected["codegen"] == 1
    assert cache.stores["codegen"] == 1  # regenerated and re-stored
    assert served == reference


def _swap_blob(payload):
    """A marshalled blob compiled from other sources (``return 42``),
    with its checksum updated to match."""
    altered = [text.replace("return 0", "return 42")
               for text in payload["sources"]]
    assert list(payload["sources"]) != altered
    blob = marshal.dumps(tuple(compile(text, "<tampered>", "exec")
                               for text in altered))
    payload["code"] = blob
    payload["code_sha"] = hashlib.sha256(blob).hexdigest()


def _assert_restored(mutate, monkeypatch, source=FIR_LIKE_SOURCE,
                     inputs=FIR_INPUTS):
    """The gate rejects the tampered entry and re-stores it: a later
    process without the gate is then served the right program, edge
    profile included."""
    _assert_rejected(mutate, source=source, inputs=inputs)
    monkeypatch.delenv(diskcache.VERIFY_ENV_VAR)
    diskcache.reset_cache_state()
    served = run_module(_graph_module(source), inputs, engine="codegen")
    assert diskcache.get_cache().hits["codegen"] == 1
    assert _projection(served) == _projection(run_module(
        _graph_module(source), inputs, engine="reference"))


def _first_graph(payload):
    return payload["graphs"][sorted(payload["graphs"])[0]]


def _first_word(lg, op):
    for word in lg.words:
        if word[0] == op:
            return word
    raise AssertionError(f"no word with opcode {op}")


def _edit_sources(payload, edit):
    sources = payload["sources"]
    edited = tuple(edit(text) for text in sources)
    assert edited != sources
    payload["sources"] = edited


# -- pristine entries are accepted -------------------------------------------------


class TestPristineArtifacts:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_all_tiers_clean(self, verified_cache, level):
        cache, served, reference = _serve_tampered(lambda payload: None,
                                                   level=level)
        assert cache.hits["codegen"] == 1
        assert not cache.rejected and not cache.stores
        assert served == reference

    def test_int_kernel_clean(self, verified_cache):
        cache, served, reference = _serve_tampered(
            lambda payload: None, INT_KERNEL_SOURCE, INT_INPUTS, level=2)
        assert cache.hits["codegen"] == 1 and not cache.rejected
        assert served == reference


# -- lowered-word mutations --------------------------------------------------------


class TestWordMutations:
    def test_successor_ref_to_foreign_word(self, verified_cache):
        def mutate(payload):
            lg = _first_graph(payload)
            _first_word(lg, _eng.BR)[3] = len(lg.words) + 5
        _assert_rejected(mutate)

    def test_register_slot_above_frame(self, verified_cache):
        def mutate(payload):
            lg = _first_graph(payload)
            word = next(w for w in lg.words
                        if w[0] in (_eng.BIN, _eng.MOV))
            word[1] = lg.n_regs + 5
        _assert_rejected(mutate)

    def test_missing_terminator(self, verified_cache):
        # a word past the last terminator is never emitted, but the
        # stored graphs are no longer the fresh lowering
        _assert_rejected(lambda payload: _first_graph(payload).words.append(
            [_eng.MOV, 1, (0,)]))

    def test_dead_word(self, verified_cache):
        # orphan: no word references it, so no block emits it, but the
        # stored graphs are no longer the fresh lowering
        _assert_rejected(lambda payload: _first_graph(payload).words.append(
            [_eng.RET, None]))

    def test_edge_table_swap(self, verified_cache):
        def mutate(payload):
            lg = _first_graph(payload)
            assert len(lg.edge_pairs) >= 2
            lg.edge_pairs[0], lg.edge_pairs[1] = \
                lg.edge_pairs[1], lg.edge_pairs[0]
        # the code does not read the table, an ungated load's profile
        # reconstruction does
        _assert_rejected(mutate)

    def test_branch_counter_pair(self, verified_cache):
        def mutate(payload):
            br = _first_word(_first_graph(payload), _eng.BR)
            br[4] = br[2] + 2
        _assert_rejected(mutate)

    def test_counter_out_of_range(self, verified_cache):
        def mutate(payload):
            lg = _first_graph(payload)
            _first_word(lg, _eng.BR)[2] = lg.n_counters + 7
        _assert_rejected(mutate)

    def test_unknown_opcode(self, verified_cache):
        # re-emission crashes on the word, which rejects the entry
        def mutate(payload):
            _first_graph(payload).words[0][0] = 10_000
        _assert_rejected(mutate)


# -- the CFG the range analysis walks ----------------------------------------------


class TestWordCFG:
    def test_reachable_covers_member_words(self):
        gm = _graph_module(level=2)
        lg = lower_module(gm).graphs["main"]
        cfg = build_word_cfg(lg)
        seen = {cfg.entry}
        stack = [cfg.entry]
        while stack:
            for v in cfg.succs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert seen == set(range(len(lg.words)))
        assert all(u in cfg.preds[v]
                   for u in range(cfg.n) for v in cfg.succs[u])


# -- stored-source mutations -------------------------------------------------------


class TestCodegenSourceMutations:
    def test_deleted_counter_writeback(self, verified_cache):
        def drop(text):
            lines = text.splitlines()
            idx = next(i for i, line in enumerate(lines)
                       if "eh[" in line and "+=" in line)
            return "\n".join(lines[:idx] + lines[idx + 1:])
        _assert_rejected(lambda payload: _edit_sources(payload, drop))

    def test_deleted_cycle_writeback(self, verified_cache):
        def drop(text):
            return "\n".join(line for line in text.splitlines()
                             if line.strip() != "cyc[0] = n")
        _assert_rejected(lambda payload: _edit_sources(payload, drop))

    def test_deleted_limit_exit_writeback(self, verified_cache):
        _assert_rejected(lambda payload: _edit_sources(
            payload, lambda text: text.replace("cyc[0] = n", "pass", 1)))

    def test_disabled_bounds_guard(self, verified_cache):
        _assert_rejected(lambda payload: _edit_sources(
            payload,
            lambda text: text.replace("if 0 <= ", "if True or 0 <= ", 1)))

    def test_unbound_name(self, verified_cache):
        _assert_rejected(lambda payload: _edit_sources(
            payload, lambda text: text.replace(
                "limit = state.max_cycles",
                "limit = missing_state.max_cycles", 1)))

    def test_unknown_const_default(self, verified_cache):
        # the stored constants are never bound under the gate, but an
        # ungated load binds them
        def mutate(payload):
            consts = payload["consts"]
            assert consts
            del consts[sorted(consts)[0]]
        _assert_rejected(mutate, source=HELPER_KERNEL_SOURCE,
                         inputs=INT_INPUTS)

    def test_missing_function_def(self, verified_cache):
        _assert_rejected(lambda payload: _edit_sources(
            payload, lambda text: text.replace("def _f0(", "def _g0(")))

    def test_syntax_error(self, verified_cache):
        _assert_rejected(lambda payload: _edit_sources(
            payload, lambda text: text + "\n  ):"))


class TestVerifyOnLoad:
    def test_clean_warm_load_not_rejected(self, verified_cache):
        generate_module(_graph_module())
        diskcache.reset_cache_state()
        generate_module(_graph_module())
        cache = diskcache.get_cache()
        assert cache.hits["codegen"] == 1
        assert not cache.rejected

    def test_tampered_codegen_source_rejected(self, verified_cache):
        def strip_writeback(payload):
            lines = payload["sources"][0].splitlines()
            idx = next(i for i, line in enumerate(lines)
                       if "eh[" in line and "+=" in line)
            payload["sources"] = ("\n".join(lines[:idx] + lines[idx + 1:]),
                                  *payload["sources"][1:])
        _assert_rejected(strip_writeback)

    def test_unguarded_load_rejected(self, verified_cache):
        """A stored source that reads array data without the bounds
        guard is refused: no entry can reintroduce guard elision."""
        def drop_guard(payload):
            source = payload["sources"][0]
            assert "if 0 <= " in source
            payload["sources"] = (source.replace("if 0 <= ",
                                                 "if True or 0 <= ", 1),
                                  *payload["sources"][1:])
        _assert_rejected(drop_guard)

    def test_tampered_bytecode_word_rejected(self, verified_cache):
        """The lowered words travel inside the codegen entry."""
        def corrupt_word(payload):
            lg = _first_graph(payload)
            word = next(w for w in lg.words
                        if w[0] in (_eng.BIN, _eng.MOV))
            word[1] = lg.n_regs + 9
        _assert_rejected(corrupt_word)

    def test_semantic_source_edit_rejected(self, verified_cache):
        """A well-formed stored source that computes something else is
        a different program: the comparison refuses it, and the served
        run is the reference run."""
        _assert_rejected(lambda payload: _edit_sources(
            payload, lambda text: text.replace("return 0", "return 42")))

    def test_entry_under_foreign_digest_rejected(self, verified_cache):
        """A key collision, simulated: module A's entry filed under
        module B's digest, where A and B differ only in which array one
        load reads.  B is served its own program, not A's."""
        a = _graph_module(X_LOAD_SOURCE)
        generate_module(a)
        [path] = _entry_paths("codegen")
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
        b_digest = diskcache.module_digest(_graph_module(Z_LOAD_SOURCE))
        assert b_digest != entry["digest"]
        entry["digest"] = b_digest
        cache = diskcache.get_cache()
        with open(cache.entry_path("codegen", b_digest), "wb") as fh:
            pickle.dump(entry, fh)
        diskcache.reset_cache_state()
        served = run_module(_graph_module(Z_LOAD_SOURCE), XZ_INPUTS,
                            engine="codegen")
        cache = diskcache.get_cache()
        assert cache.rejected["codegen"] == 1
        assert cache.stores["codegen"] == 1
        assert served.return_value == 6
        assert _projection(served) == _projection(run_module(
            _graph_module(Z_LOAD_SOURCE), XZ_INPUTS, engine="reference"))

    def test_tampered_code_blob_not_executed(self, verified_cache,
                                            monkeypatch):
        """Under REPRO_VERIFY=1 the code that runs is compiled from the
        fresh sources: a marshalled blob compiled from other source, with
        its checksum updated to match, is never executed, and the entry
        is rejected and re-stored, so a later ungated load runs the
        right code too."""
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")
        _rewrite(path, _swap_blob)
        fresh = run_module(_graph_module(), engine="reference")
        assert fresh.return_value == 0
        diskcache.reset_cache_state()
        served = run_module(_graph_module(), engine="codegen")
        cache = diskcache.get_cache()
        assert cache.rejected["codegen"] == 1
        assert cache.stores["codegen"] == 1
        assert _projection(served) == _projection(fresh)
        monkeypatch.delenv(diskcache.VERIFY_ENV_VAR)
        diskcache.reset_cache_state()
        assert run_module(_graph_module(),
                          engine="codegen").return_value == 0

    # Each tamper below leaves the stored sources alone, so comparing
    # sources alone would accept the entry and a later ungated process
    # would run it: the gate must reject and re-store it.

    def test_blob_from_other_sources_restored(self, verified_cache,
                                              monkeypatch):
        _assert_restored(_swap_blob, monkeypatch)

    def test_swapped_edge_table_entry_restored(self, verified_cache,
                                               monkeypatch):
        def swap(payload):
            lg = _first_graph(payload)
            e = next(i for i in range(len(lg.edge_pairs) - 1)
                     if lg.edge_pairs[i] != lg.edge_pairs[i + 1])
            lg.edge_pairs[e], lg.edge_pairs[e + 1] = \
                lg.edge_pairs[e + 1], lg.edge_pairs[e]
        _assert_restored(swap, monkeypatch)

    def test_altered_constant_restored(self, verified_cache, monkeypatch):
        def alter(payload):
            consts = payload["consts"]
            first, second = sorted(consts)[:2]
            assert consts[first] is not consts[second]
            consts[first], consts[second] = consts[second], consts[first]
        _assert_restored(alter, monkeypatch, HELPER_KERNEL_SOURCE,
                         INT_INPUTS)

    def test_cache_scan_reports_corrupt_entry(self, verified_cache):
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")
        well, corrupt, details = scan_cache_entries(diskcache.get_cache())
        assert corrupt == 0 and well >= 1

        def garble(payload):
            payload["sources"] = ("def _f0(:\n",)

        _rewrite(path, garble)
        well, corrupt, details = scan_cache_entries(diskcache.get_cache())
        assert corrupt == 1
        assert any("re-emission" in d for d in details)

    def test_cache_scan_reports_foreign_code_blob(self, verified_cache):
        """The scan compiles the stored sources and compares the code
        objects with the blob, whose checksum alone still matches."""
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")
        _rewrite(path, _swap_blob)
        well, corrupt, details = scan_cache_entries(diskcache.get_cache())
        assert (well, corrupt) == (0, 1)
        assert any("code-blob" in d for d in details)


# -- IR call sites -----------------------------------------------------------------


def _ret(value=None):
    return Instruction(Op.RET, srcs=(value,) if value is not None else ())


class TestIRCallSites:
    def _module_with(self, callee_params, return_type="void"):
        module = Module()
        callee = Function("g", params=callee_params,
                          return_type=return_type)
        callee.emit(_ret())
        module.add_function(callee)
        return module

    def test_argument_count_mismatch(self):
        module = self._module_with([VirtualReg("a", False)])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, srcs=(), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="passes 0 argument"):
            verify_function(caller, module)

    def test_scalar_class_mismatch(self):
        module = self._module_with([VirtualReg("a", True)])  # float param
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, srcs=(Constant(1, False),),
                                callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="register class mismatches"):
            verify_function(caller, module)

    def test_array_for_scalar_param(self):
        module = self._module_with([VirtualReg("a", False)])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(
            Op.CALL, srcs=(ArraySymbol("x", 8, False),), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="must be a scalar"):
            verify_function(caller, module)

    def test_array_element_type_mismatch(self):
        module = self._module_with([ArraySymbol("p", 8, True)])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(
            Op.CALL, srcs=(ArraySymbol("x", 8, False),), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="is int, parameter"):
            verify_function(caller, module)

    def test_void_call_must_not_define(self):
        module = self._module_with([])
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, dest=VirtualReg("t0", False),
                                srcs=(), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        with pytest.raises(IRError, match="void function"):
            verify_function(caller, module)

    def test_valid_call_passes(self):
        module = self._module_with([VirtualReg("a", False)],
                                   return_type="int")
        caller = Function("main", return_type="int")
        caller.emit(Instruction(Op.CALL, dest=VirtualReg("t0", False),
                                srcs=(Constant(1, False),), callee="g"))
        caller.emit(_ret(Constant(0, False)))
        module.add_function(caller)
        verify_function(caller, module)  # must not raise

    def test_frontend_modules_pass(self):
        from repro.ir.verify import verify_module
        verify_module(compile_source(FIR_LIKE_SOURCE))


# -- determinism lint --------------------------------------------------------------


class TestDeterminismLint:
    def test_repo_is_clean(self):
        result = lint_determinism()
        assert result.ok, [str(v) for v in result.violations]

    def test_flags_set_iteration(self):
        source = ("def f(xs):\n"
                  "    s = set(xs)\n"
                  "    for x in s:\n"
                  "        print(x)\n")
        result = lint_source("x.py", source, VerifyResult())
        assert "unordered-set-iteration" in _invariants(result)

    def test_flags_dictcomp_over_set(self):
        # the exact shape of the lanes _LaneState bug
        source = ("def f(globals_):\n"
                  "    names = set()\n"
                  "    for g in globals_:\n"
                  "        names.update(g)\n"
                  "    return {n: 1 for n in names}\n")
        result = lint_source("x.py", source, VerifyResult())
        assert "unordered-set-iteration" in _invariants(result)

    def test_sorted_iteration_allowed(self):
        source = ("def f(xs):\n"
                  "    s = set(xs)\n"
                  "    return sorted(s), len(s), 3 in s\n")
        assert lint_source("x.py", source, VerifyResult()).ok

    def test_flags_unsorted_listdir(self):
        source = ("import os\n"
                  "def f():\n"
                  "    return [p for p in os.listdir('.')]\n")
        result = lint_source("x.py", source, VerifyResult())
        assert "unordered-fs-iteration" in _invariants(result)

    def test_sorted_listdir_allowed(self):
        source = ("import os\n"
                  "def f():\n"
                  "    return sorted(p for p in os.listdir('.'))\n")
        assert lint_source("x.py", source, VerifyResult()).ok

    def test_suppression_comment(self):
        source = ("def f(xs):\n"
                  "    s = set(xs)\n"
                  "    for x in s:  # lint: ordered\n"
                  "        print(x)\n")
        assert lint_source("x.py", source, VerifyResult()).ok


# -- sweep and CLI -----------------------------------------------------------------


class TestSweepAndCli:
    def test_sweep_single_benchmark(self):
        report = run_sweep(benchmarks=["fir"], levels=(1,))
        assert report.ok and report.checks > 0
        text = render_markdown(report)
        assert "| fir | 1 |" in text
        assert "0 cell(s) failed" in text

    def test_cli_verify(self, capsys):
        from repro.cli import main
        code = main(["verify", "--benchmarks", "iir", "--levels", "0",
                     "--skip-lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Static artifact verification" in out

    def test_cli_cache_show_verify(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        generate_module(_graph_module())
        code = main(["cache", "show", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "well-formed" in out
        diskcache.reset_cache_state()

"""Mutation tests for the static artifact verifier (``repro.analysis``).

Every test seeds one specific corruption — a lowered word, a generated
source line, a disk-cache payload — and asserts the
verifier rejects it *naming the violated invariant*.  Positive tests pin
that pristine artifacts pass with zero violations.
"""

from __future__ import annotations

import glob
import hashlib
import marshal
import pickle

import pytest

from repro.analysis import VerificationError, VerifyResult
from repro.analysis.cfg import build_word_cfg, verify_words
from repro.analysis.lint import lint_determinism, lint_source
from repro.analysis.sweep import render_markdown, run_sweep, scan_cache_entries
from repro.analysis.verify_codegen import (verify_generated_module,
                                           verify_generated_source)
from repro.analysis.verify_lowered import verify_graph, verify_lowered_module
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
from repro.sim.codegen import emit_sources, generate_module
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


def _graph_module(source=FIR_LIKE_SOURCE, level=1):
    module = compile_source(source)
    gm, _ = optimize_module(module, OptLevel(level))
    return gm


def _invariants(result: VerifyResult):
    return {v.invariant for v in result.violations}


# -- positive: pristine artifacts pass ---------------------------------------------


class TestPristineArtifacts:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_all_tiers_clean(self, level):
        gm = _graph_module(level=level)
        for graph in gm.graphs.values():
            assert verify_graph(graph).ok
        lower_module(gm)
        lowered = verify_lowered_module(gm, gm._lowered_cache)
        assert lowered.ok and lowered.checks > 100
        assert verify_generated_module(gm, generate_module(gm)).ok

    def test_int_kernel_clean(self):
        gm = _graph_module(INT_KERNEL_SOURCE, level=2)
        lower_module(gm)
        assert verify_lowered_module(gm, gm._lowered_cache).ok
        assert verify_generated_module(gm, generate_module(gm)).ok

    def test_raise_if_failed(self):
        result = VerifyResult()
        result.check(False, "some-invariant", "broken thing")
        with pytest.raises(VerificationError, match="some-invariant"):
            result.raise_if_failed()
        assert VerifyResult().ok


# -- word-level mutations ----------------------------------------------------------


def _lowered_graph(gm):
    lower_module(gm)
    name = sorted(gm.graphs)[0]
    return name, gm._lowered_cache.graphs[name]


def _first_word(lg, op):
    for word in lg.words:
        if word[0] == op:
            return word
    raise AssertionError(f"no word with opcode {op}")


class TestWordMutations:
    def test_successor_ref_to_foreign_word(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        br = _first_word(lg, _eng.BR)
        br[3] = len(lg.words) + 5  # an index past the word list
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "successor-ref" in _invariants(result)

    def test_register_slot_above_frame(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        word = next(w for w in lg.words
                    if w[0] in (_eng.ADD_RR, _eng.ADD_RC, _eng.MOV_C))
        word[1] = lg.n_regs + 5
        result = verify_words(lg)
        assert "register-slot-range" in _invariants(result)

    def test_missing_terminator(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        # a word that falls through past the end of the list
        lg.words.append([_eng.MOV_C, 1, 0])
        result = verify_words(lg)
        assert "missing-terminator" in _invariants(result)

    def test_dead_word(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        lg.words.append([_eng.RET_N])  # orphan: no word references it
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "dead-word" in _invariants(result)

    def test_edge_table_swap(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        assert len(lg.edge_pairs) >= 2
        lg.edge_pairs[0], lg.edge_pairs[1] = \
            lg.edge_pairs[1], lg.edge_pairs[0]
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "edge-table" in _invariants(result)

    def test_branch_counter_pair(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        br = _first_word(lg, _eng.BR)
        br[4] = br[2] + 2  # legs must carry adjacent counters
        result = verify_lowered_module(gm, gm._lowered_cache)
        assert "branch-counter-pair" in _invariants(result)

    def test_counter_out_of_range(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        br = _first_word(lg, _eng.BR)
        br[2] = lg.n_counters + 7
        result = verify_words(lg)
        assert "edge-index-range" in _invariants(result)

    def test_unknown_opcode(self):
        gm = _graph_module()
        name, lg = _lowered_graph(gm)
        lg.words[0][0] = 10_000
        result = verify_words(lg)
        assert "unknown-opcode" in _invariants(result)


# -- CFG reconstruction ------------------------------------------------------------


class TestWordCFG:
    def test_reachable_covers_member_words(self):
        gm = _graph_module(level=2)
        _, lg = _lowered_graph(gm)
        cfg = build_word_cfg(lg)
        assert set(range(len(lg.words))) <= cfg.reachable


# -- generated-source mutations ----------------------------------------------------


class TestCodegenSourceMutations:
    def _source_parts(self, gm):
        lowered = generate_module(gm).lowered
        sources, consts = emit_sources(lowered)
        return lowered.graphs, "\n".join(sources), consts

    def test_deleted_counter_writeback(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        lines = source.splitlines()
        idx = next(i for i, line in enumerate(lines)
                   if "eh[" in line and "+=" in line)
        mutated = "\n".join(lines[:idx] + lines[idx + 1:])
        result = verify_generated_source(gm, graphs, mutated, consts)
        assert "counter-writeback" in _invariants(result)

    def test_deleted_cycle_writeback(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        mutated = "\n".join(line for line in source.splitlines()
                            if line.strip() != "cyc[0] = n")
        result = verify_generated_source(gm, graphs, mutated, consts)
        assert "cycle-writeback" in _invariants(result)

    def test_deleted_limit_exit_writeback(self):
        # The cycle-limit guard raises instead of returning, so only the
        # limit-exit sweep sees it: drop just its write-back (the first
        # occurrence — the guard is emitted before any block body).
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        mutated = source.replace("cyc[0] = n", "pass", 1)
        assert mutated != source
        result = verify_generated_source(gm, graphs, mutated, consts)
        assert "cycle-writeback" in _invariants(result)

    def test_disabled_bounds_guard(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        assert "if 0 <= " in source
        mutated = source.replace("if 0 <= ", "if True or 0 <= ", 1)
        result = verify_generated_source(gm, graphs, mutated, consts)
        assert "unguarded-load" in _invariants(result)

    def test_unbound_name(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        assert "limit = state.max_cycles" in source
        mutated = source.replace("limit = state.max_cycles",
                                 "limit = missing_state.max_cycles", 1)
        result = verify_generated_source(gm, graphs, mutated, consts)
        assert "unbound-name" in _invariants(result)

    def test_unknown_const_default(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        assert consts  # fir-like kernel folds constants
        key = sorted(consts)[0]
        broken = {k: v for k, v in consts.items() if k != key}
        result = verify_generated_source(gm, graphs, source, broken)
        assert "const-binding" in _invariants(result)

    def test_missing_function_def(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        mutated = source.replace("def _f0(", "def _g0(")
        result = verify_generated_source(gm, graphs, mutated, consts)
        assert "function-table" in _invariants(result)

    def test_syntax_error(self):
        gm = _graph_module()
        graphs, source, consts = self._source_parts(gm)
        result = verify_generated_source(gm, graphs, source + "\n  ):",
                                         consts)
        assert "source-syntax" in _invariants(result)


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


class TestVerifyOnLoad:
    def test_clean_warm_load_not_rejected(self, verified_cache):
        generate_module(_graph_module())
        diskcache.reset_cache_state()
        generate_module(_graph_module())
        cache = diskcache.get_cache()
        assert cache.hits["codegen"] == 1
        assert not cache.rejected

    def test_tampered_codegen_source_rejected(self, verified_cache):
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")

        def strip_writeback(payload):
            lines = payload["sources"][0].splitlines()
            idx = next(i for i, line in enumerate(lines)
                       if "eh[" in line and "+=" in line)
            payload["sources"] = ("\n".join(lines[:idx] + lines[idx + 1:]),
                                  *payload["sources"][1:])

        _rewrite(path, strip_writeback)
        diskcache.reset_cache_state()
        gm = _graph_module()
        generated = generate_module(gm)
        cache = diskcache.get_cache()
        assert cache.rejected["codegen"] == 1
        assert cache.stores["codegen"] == 1  # regenerated and re-stored
        assert verify_generated_module(gm, generated).ok

    def test_unguarded_load_rejected(self, verified_cache):
        """A stored source that reads array data without the bounds
        guard is refused: no entry can reintroduce guard elision."""
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")

        def drop_guard(payload):
            source = payload["sources"][0]
            assert "if 0 <= " in source
            payload["sources"] = (source.replace("if 0 <= ",
                                                 "if True or 0 <= ", 1),
                                  *payload["sources"][1:])

        _rewrite(path, drop_guard)
        diskcache.reset_cache_state()
        generate_module(_graph_module())
        cache = diskcache.get_cache()
        assert cache.rejected["codegen"] == 1
        assert cache.stores["codegen"] == 1

    def test_tampered_bytecode_word_rejected(self, verified_cache):
        """The lowered words travel inside the codegen entry."""
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")

        def corrupt_word(payload):
            name = sorted(payload["graphs"])[0]
            lg = payload["graphs"][name]
            word = next(w for w in lg.words
                        if w[0] in (_eng.ADD_RR, _eng.MOV_C, _eng.ADD_RC))
            word[1] = lg.n_regs + 9

        _rewrite(path, corrupt_word)
        diskcache.reset_cache_state()
        gm2 = _graph_module()
        generate_module(gm2)
        cache = diskcache.get_cache()
        assert cache.rejected["codegen"] == 1
        assert verify_lowered_module(gm2, gm2._lowered_cache).ok

    def test_tampered_code_blob_not_executed(self, verified_cache,
                                            monkeypatch):
        """The gate checks the stored sources, so the sources are what
        runs: a marshalled blob compiled from other source, with its
        checksum updated to match, is ignored under REPRO_VERIFY=1."""
        generate_module(_graph_module())
        [path] = _entry_paths("codegen")

        def swap_blob(payload):
            altered = [text.replace("return 0", "return 42")
                       for text in payload["sources"]]
            assert list(payload["sources"]) != altered
            blob = marshal.dumps(tuple(compile(text, "<tampered>", "exec")
                                       for text in altered))
            payload["code"] = blob
            payload["code_sha"] = hashlib.sha256(blob).hexdigest()

        _rewrite(path, swap_blob)
        fresh = run_module(_graph_module(), engine="reference")
        assert fresh.return_value == 0
        diskcache.reset_cache_state()
        served = run_module(_graph_module(), engine="codegen")
        assert diskcache.get_cache().hits["codegen"] == 1
        assert served.return_value == fresh.return_value
        assert served.globals_after == fresh.globals_after
        assert served.cycles == fresh.cycles
        # Without the gate the checksummed blob is trusted as is, which
        # is what makes the tampering above observable.
        monkeypatch.delenv(diskcache.VERIFY_ENV_VAR)
        diskcache.reset_cache_state()
        assert run_module(_graph_module(),
                          engine="codegen").return_value == 42

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
        assert any("source-syntax" in d for d in details)


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
        assert report.ok and report.checks > 1000
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

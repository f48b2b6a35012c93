"""Multi-seed batch tests: per-seed equivalence, divergence, faults, caching.

A batch runs every seed of a study cell through one generated program
(:func:`~repro.sim.machine.run_module_batch`); each seed is one *lane* of
the batch.  The contract is per lane: each lane's result — return value,
memory, cycles, the fully resolved profile, and any fault — must be
bit-identical to that lane's own ``run_module`` call on the reference
oracle.  The harness here sweeps the 12-benchmark suite at levels 0–2,
programs whose lanes take different branch paths, and batches where some
lanes fault while the rest complete; ``tests/test_fuzz_engines.py``
extends the same per-lane oracle to generated corpora.
"""

import pickle

import pytest

from repro.cfg.build import build_module_graphs
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.codegen import CodegenEngine, generate_module
from repro.sim.machine import run_module, run_module_batch
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark

SUITE = [spec.name for spec in all_benchmarks()]
LEVELS = (0, 1, 2)
LANE_COUNTS = (2, 4, 9)


def assert_identical(expected, actual):
    """Bit-identical MachineResults, profile included."""
    assert actual.return_value == expected.return_value
    assert actual.globals_after == expected.globals_after
    assert actual.cycles == expected.cycles
    assert actual.profile.node_counts == expected.profile.node_counts
    assert actual.profile.edge_counts == expected.profile.edge_counts
    assert actual.profile.call_counts == expected.profile.call_counts


def outcome(gm, inputs, engine):
    try:
        return ("ok", run_module(gm, inputs, engine=engine))
    except SimulationError as exc:
        return ("error", str(exc))


def lane_outcomes(gm, inputs_list):
    """Each lane's codegen outcome: ``("ok", result)`` or ``("error",
    message)``.  A batch without faults runs as one batch."""
    try:
        return [("ok", result)
                for result in run_module_batch(gm, inputs_list)]
    except SimulationError:
        return [outcome(gm, inputs, "codegen") for inputs in inputs_list]


def assert_lanes_match_reference(gm, inputs_list):
    """Every lane of one batch == its own sequential reference run."""
    outcomes = lane_outcomes(gm, inputs_list)
    assert len(outcomes) == len(inputs_list)
    for lane, (inputs, (kind, payload)) in enumerate(
            zip(inputs_list, outcomes)):
        ref_kind, ref_payload = outcome(gm, inputs, "reference")
        assert kind == ref_kind, (lane, payload)
        if kind == "error":
            assert payload == ref_payload, lane
        else:
            assert_identical(ref_payload, payload)


class TestSuiteDifferential:
    """Every benchmark at every level, lane-by-lane vs the oracle."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", SUITE)
    def test_levels(self, name, level):
        spec = get_benchmark(name)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        assert_lanes_match_reference(
            gm, [spec.generate_inputs(seed) for seed in range(4)])

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_lane_counts(self, lanes):
        spec = get_benchmark("sewha")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(1))
        assert_lanes_match_reference(
            gm, [spec.generate_inputs(seed) for seed in range(lanes)])

    def test_single_lane_run(self):
        spec = get_benchmark("fir")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(2))
        inputs = spec.generate_inputs(0)
        [single] = run_module_batch(gm, [inputs])
        assert_identical(run_module(gm, inputs, engine="reference"), single)

    def test_empty_batch(self):
        spec = get_benchmark("fir")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(0))
        assert run_module_batch(gm, []) == []


class TestDivergence:
    """Lanes that take different branch paths; every lane's counters and
    outputs must still match its own run."""

    def _module(self, src):
        return build_module_graphs(compile_source(src, "t"))

    @pytest.mark.parametrize("level", LEVELS)
    def test_data_dependent_branch(self, level):
        src = ("int sel[1]; int out[1];"
               "int main() { int s; int i; s = 0;"
               " if (sel[0] > 0) { for (i = 0; i < 8; i++) { s += i; } }"
               " else { s = 0 - 5; }"
               " out[0] = s; return s; }")
        gm, _ = optimize_module(compile_source(src, "t"), OptLevel(level))
        inputs_list = [{"sel": [v]} for v in (1, -1, 0, 3, -2, 1, 0, 2, -9)]
        assert_lanes_match_reference(gm, inputs_list)

    def test_per_lane_trip_counts(self):
        """Back-edge divergence: each lane loops a different number of
        times, so cycle counts differ per lane."""
        src = ("int n[1];"
               "int main() { int s; int i; s = 0;"
               " for (i = 0; i < n[0]; i++) { s = s * 3 + i; }"
               " return s; }")
        gm = self._module(src)
        inputs_list = [{"n": [v]} for v in (0, 1, 5, 2, 9, 7, 3, 4, 6)]
        assert_lanes_match_reference(gm, inputs_list)
        results = run_module_batch(gm, inputs_list)
        assert len({r.cycles for r in results}) > 1

    def test_divergence_inside_call(self):
        """A callee that diverges per lane: the branch-only counters of
        caller and callee must still resolve exactly."""
        src = ("int n[2];"
               "int f(int k) { int s; int i; s = 1;"
               " for (i = 0; i < k; i++) { s += s; } return s; }"
               "int main() { return f(n[0]) + f(n[1]); }")
        gm = self._module(src)
        inputs_list = [{"n": [a, b]}
                       for a, b in ((0, 4), (4, 0), (2, 2), (7, 1),
                                    (1, 7), (3, 5), (5, 3), (6, 6), (0, 0))]
        assert_lanes_match_reference(gm, inputs_list)


class TestFaultParity:
    """A faulting lane raises its own sequential error message while the
    other lanes complete bit-identically."""

    SRC = ("int a[4]; int idx[1];"
           "int main() { return a[idx[0]] + 1; }")

    def _module(self):
        return build_module_graphs(compile_source(self.SRC, "t"))

    def test_mid_batch_fault(self):
        gm = self._module()
        inputs_list = [{"a": [1, 2, 3, 4], "idx": [i]}
                       for i in (0, 2, 9, 1, 7, 3)]  # lanes 2 and 4 trap
        outcomes = lane_outcomes(gm, inputs_list)
        kinds = [kind for kind, _ in outcomes]
        assert kinds == ["ok", "ok", "error", "ok", "error", "ok"]
        assert_lanes_match_reference(gm, inputs_list)

    def test_run_batch_raises_first_fault(self):
        gm = self._module()
        inputs_list = [{"a": [1, 2, 3, 4], "idx": [i]}
                       for i in (0, 9, 1, 7)]
        with pytest.raises(SimulationError,
                           match=r"load out of bounds: a\[9\]"):
            run_module_batch(gm, inputs_list)

    def test_all_lanes_fault(self):
        gm = self._module()
        inputs_list = [{"a": [1, 2, 3, 4], "idx": [i]} for i in (8, 9)]
        outcomes = lane_outcomes(gm, inputs_list)
        assert [kind for kind, _ in outcomes] == ["error", "error"]
        assert_lanes_match_reference(gm, inputs_list)

    def test_unknown_input_name_faults_only_that_lane(self):
        gm = self._module()
        inputs_list = [{"a": [1, 2, 3, 4], "idx": [0]},
                       {"bogus": [1]},
                       {"a": [5, 6, 7, 8], "idx": [1]}]
        outcomes = lane_outcomes(gm, inputs_list)
        assert [kind for kind, _ in outcomes] == ["ok", "error", "ok"]
        assert "bogus" in outcomes[1][1]
        assert_lanes_match_reference(gm, inputs_list)

    def test_cycle_limit_parity(self):
        spec = get_benchmark("fir")
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(0))
        inputs = spec.generate_inputs(0)
        true_cycles = run_module(gm, inputs).cycles
        with pytest.raises(SimulationError, match="cycle limit"):
            CodegenEngine(gm, max_cycles=true_cycles // 2).run_batch(
                [inputs, spec.generate_inputs(1)])
        results = CodegenEngine(gm, max_cycles=true_cycles).run_batch(
            [inputs])
        assert results[0].cycles == true_cycles


class TestErrorParity:
    """Every lane of a batch raises the same SimulationError as the
    reference engine, message for message."""

    def _outcomes(self, gm, lanes=3):
        return lane_outcomes(gm, [None] * lanes)

    def _assert_uniform_error(self, gm, fragment, exact=True):
        ref = outcome(gm, None, "reference")
        assert ref[0] == "error" and fragment in ref[1]
        for kind, payload in self._outcomes(gm):
            assert kind == "error"
            if exact:
                assert payload == ref[1]
            else:
                assert fragment in payload

    def test_division_by_zero(self):
        gm = build_module_graphs(compile_source(
            "int n = 0; int main() { return 5 / n; }", "t"))
        self._assert_uniform_error(gm, "division by zero")

    def test_recursion_depth(self):
        gm = build_module_graphs(compile_source(
            "int f(int n) { return f(n + 1); }"
            " int main() { return f(0); }", "t"))
        self._assert_uniform_error(gm, "depth")

    def test_undefined_register_read(self):
        # Arithmetic on _UNDEF raises through the sentinel's dunders in
        # generated code, which cannot name the register; match the
        # fragment like the other engines' suites do.
        from repro.cfg.graph import GraphModule, ProgramGraph
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        from repro.ir.values import Constant, VirtualReg
        graph = ProgramGraph("main", return_type="int")
        n0 = graph.new_node()
        n1 = graph.new_node()
        ghost = VirtualReg("%ghost")
        n0.ops.append(Instruction(Op.ADD, dest=VirtualReg("%r"),
                                  srcs=(ghost, Constant(1))))
        n1.control = Instruction(Op.RET, srcs=(VirtualReg("%r"),))
        graph.entry = n0.id
        graph.add_edge(n0.id, n1.id)
        gm = GraphModule("t", {"main": graph}, {}, {}, {})
        self._assert_uniform_error(gm, "undefined register", exact=False)

    def test_undefined_register_move(self):
        from repro.cfg.graph import GraphModule, ProgramGraph
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        from repro.ir.values import Constant, VirtualReg
        graph = ProgramGraph("main", return_type="int")
        n0 = graph.new_node()
        n1 = graph.new_node()
        n0.ops.append(Instruction(Op.MOV, dest=VirtualReg("%a"),
                                  srcs=(VirtualReg("%ghost"),)))
        n1.control = Instruction(Op.RET, srcs=(Constant(7),))
        graph.entry = n0.id
        graph.add_edge(n0.id, n1.id)
        gm = GraphModule("t", {"main": graph}, {}, {}, {})
        self._assert_uniform_error(gm, "undefined register '%ghost'")


class TestCaching:
    """A batch of any width runs one generated module, which lives in
    memory and on disk, invalidates on module edits, and never crosses a
    pickle boundary."""

    def _graphs(self):
        return build_module_graphs(compile_source(
            "int x[4]; int main() { int i; int s; s = 0;"
            " for (i = 0; i < 4; i++) { s += x[i]; } return s; }", "t"))

    def test_batch_generates_once(self, monkeypatch):
        import repro.sim.codegen as codegen_mod
        gm = self._graphs()
        calls = []
        real = codegen_mod.generate_module

        def counting(module):
            calls.append(module)
            return real(module)

        monkeypatch.setattr(codegen_mod, "generate_module", counting)
        run_module_batch(gm, [{"x": [s, s, s, s]} for s in range(5)])
        assert calls == [gm]

    def test_cache_invalidated_by_node_edit(self):
        from repro.ir.instr import Instruction
        from repro.ir.ops import Op
        gm = self._graphs()
        first = generate_module(gm)
        graph = gm.graphs["main"]
        node = next(n for n in graph.nodes.values() if n.ops)
        node.ops.append(Instruction(Op.NOP))
        assert generate_module(gm) is not first
        run_module_batch(gm, [{"x": [1, 2, 3, 4]}] * 1)

    def test_cache_stripped_on_pickle(self):
        gm = self._graphs()
        generate_module(gm)
        clone = pickle.loads(pickle.dumps(gm))
        assert "_compiled" not in clone.__dict__
        assert gm._compiled[2] is not None
        results = run_module_batch(
            clone, [{"x": [1, 1, 1, 1]}, {"x": [2, 2, 2, 2]}])
        assert [r.return_value for r in results] == [4, 8]

    def test_copy_does_not_share_cache(self):
        gm = self._graphs()
        generate_module(gm)
        assert "_compiled" not in gm.copy().__dict__

    def test_one_disk_entry_for_every_width(self, tmp_path, monkeypatch):
        monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path))
        diskcache.reset_cache_state()
        try:
            gm = self._graphs()
            run_module_batch(gm, [{"x": [1, 2, 3, 4]}] * 2)
            run_module_batch(gm, [{"x": [1, 2, 3, 4]}] * 4)
            cache = diskcache.get_cache()
            assert dict(cache.stores) == {"codegen": 1}
            # a cold, structurally identical module hits that entry
            cold = pickle.loads(pickle.dumps(gm))
            results = run_module_batch(
                cold, [{"x": [1, 2, 3, 4]}, {"x": [4, 3, 2, 1]}])
            assert cache.hits["codegen"] == 1
            assert [r.return_value for r in results] == [10, 10]
        finally:
            diskcache.reset_cache_state()

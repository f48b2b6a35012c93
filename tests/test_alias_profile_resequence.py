"""Tests for the alias rules, profile accessors and re-sequentialization
corner cases."""

import pytest

from repro.cfg.build import build_module_graphs
from repro.cfg.graph import ProgramGraph
from repro.asip.explore import explore_designs
from repro.asip.resequence import resequence_module, _resequence_graph
from repro.frontend import compile_source
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.opt.alias import may_alias, memory_conflict
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module
from repro.suite.registry import all_benchmarks, get_benchmark
from repro.suite.runner import compile_benchmark


class TestAlias:
    def g(self, name, is_float=False):
        return ArraySymbol(name, 8, is_float, is_global=True)

    def p(self, name, is_float=False):
        return ArraySymbol(name, 8, is_float, is_global=False)

    def test_same_name_aliases(self):
        assert may_alias(self.g("a"), self.g("a"))

    def test_distinct_globals_do_not_alias(self):
        assert not may_alias(self.g("a"), self.g("b"))

    def test_parameter_aliases_same_type_global(self):
        assert may_alias(self.p("param"), self.g("a"))

    def test_type_mismatch_never_aliases(self):
        assert not may_alias(self.p("param", True), self.g("a", False))

    def test_load_load_never_conflicts(self):
        arr = self.g("a")
        la = Instruction(Op.LOAD, dest=VirtualReg("x"),
                         srcs=(Constant(0),), array=arr)
        lb = Instruction(Op.LOAD, dest=VirtualReg("y"),
                         srcs=(Constant(1),), array=arr)
        assert not memory_conflict(la, lb)

    def test_store_load_same_array_conflicts(self):
        arr = self.g("a")
        st = Instruction(Op.STORE, srcs=(VirtualReg("v"), Constant(0)),
                         array=arr)
        ld = Instruction(Op.LOAD, dest=VirtualReg("x"),
                         srcs=(Constant(1),), array=arr)
        assert memory_conflict(st, ld)

    def test_store_to_distinct_globals_no_conflict(self):
        st_a = Instruction(Op.STORE, srcs=(VirtualReg("v"), Constant(0)),
                           array=self.g("a"))
        st_b = Instruction(Op.STORE, srcs=(VirtualReg("w"), Constant(0)),
                           array=self.g("b"))
        assert not memory_conflict(st_a, st_b)

    def test_non_memory_ops_never_conflict(self):
        add = Instruction(Op.ADD, dest=VirtualReg("x"),
                          srcs=(Constant(1), Constant(2)))
        st = Instruction(Op.STORE, srcs=(VirtualReg("v"), Constant(0)),
                         array=self.g("a"))
        assert not memory_conflict(add, st)


class TestProfileAccessors:
    @pytest.fixture()
    def profiled(self):
        src = """
        int x[8];
        int main() { int i; int s; s = 0;
            for (i = 0; i < 8; i++) { s += x[i]; }
            return s; }
        """
        gm = build_module_graphs(compile_source(src, "t"))
        result = run_module(gm, {"x": [1] * 8})
        return gm, result.profile

    def test_instruction_counts_match_node_counts(self, profiled):
        gm, profile = profiled
        counts = profile.instruction_counts(gm)
        graph = gm.graphs["main"]
        for nid, node in graph.nodes.items():
            for ins in node.all_instructions():
                assert counts[ins.uid] == profile.node_count("main", nid)

    def test_origin_counts_match_uid_counts_before_unrolling(self,
                                                             profiled):
        # Graphs hold clones of the linear module's instructions, so the
        # keys differ (uid vs provenance origin) but without unrolling the
        # mapping is one-to-one: same number of entries, same counts.
        gm, profile = profiled
        uid_counts = profile.instruction_counts(gm)
        origin_counts = profile.origin_counts(gm)
        assert len(uid_counts) == len(origin_counts)
        assert sorted(uid_counts.values()) == \
            sorted(origin_counts.values())

    def test_dynamic_ilp_at_most_one_sequentially(self, profiled):
        gm, profile = profiled
        assert profile.dynamic_ilp(gm) <= 1.0

    def test_edge_count_query(self, profiled):
        gm, profile = profiled
        graph = gm.graphs["main"]
        (tail, head) = graph.back_edges()[0]
        assert profile.edge_count("main", tail, head) == 8


class TestResequenceCorners:
    def _run_both(self, graph_module, inputs=None):
        expected = run_module(graph_module, inputs)
        flat = resequence_module(graph_module)
        actual = run_module(flat, inputs)
        assert actual.return_value == expected.return_value
        assert actual.globals_after == expected.globals_after
        return flat

    def test_branch_condition_overwritten_in_same_node(self):
        # A node computing the next condition while branching on the old
        # one: sequentialization must capture the pre-cycle value.
        g = ProgramGraph("main")
        cond = VirtualReg("c")
        n_init = g.new_node()
        n_init.ops.append(Instruction(Op.MOV, dest=cond,
                                      srcs=(Constant(1),)))
        n_branch = g.new_node()
        # In the same cycle: branch on c and overwrite c with 0.
        n_branch.ops.append(Instruction(Op.MOV, dest=cond,
                                        srcs=(Constant(0),)))
        n_branch.control = Instruction(Op.BR, srcs=(cond,),
                                       true_label="t", false_label="f")
        n_true = g.new_node()
        n_true.control = Instruction(Op.RET, srcs=(Constant(10),))
        n_false = g.new_node()
        n_false.control = Instruction(Op.RET, srcs=(Constant(20),))
        g.add_edge(n_init.id, n_branch.id)
        g.add_edge(n_branch.id, n_true.id)
        g.add_edge(n_branch.id, n_false.id)
        g.entry = n_init.id

        flat, _ = _resequence_graph(g)
        from repro.cfg.graph import GraphModule
        gm = GraphModule("m", {"main": flat}, {}, {}, {})
        result = run_module(gm)
        assert result.return_value == 10  # branch saw the old value

    def test_register_swap_node(self):
        # Two parallel moves exchanging registers need a capture temp.
        g = ProgramGraph("main")
        a, b = VirtualReg("a"), VirtualReg("b")
        init = g.new_node()
        init.ops.append(Instruction(Op.MOV, dest=a, srcs=(Constant(1),)))
        init.ops.append(Instruction(Op.MOV, dest=b, srcs=(Constant(2),)))
        swap = g.new_node()
        swap.ops.append(Instruction(Op.MOV, dest=a, srcs=(b,)))
        swap.ops.append(Instruction(Op.MOV, dest=b, srcs=(a,)))
        done = g.new_node()
        result_reg = VirtualReg("r")
        done.ops.append(Instruction(Op.MUL, dest=result_reg,
                                    srcs=(a, Constant(10))))
        ret = g.new_node()
        ret.control = Instruction(Op.RET, srcs=(result_reg,))
        g.add_edge(init.id, swap.id)
        g.add_edge(swap.id, done.id)
        g.add_edge(done.id, ret.id)
        g.entry = init.id

        from repro.cfg.graph import GraphModule
        gm = GraphModule("m", {"main": g}, {}, {}, {})
        expected = run_module(gm)
        assert expected.return_value == 20  # a becomes old b

        flat, _ = _resequence_graph(g)
        gm_flat = GraphModule("m", {"main": flat}, {}, {}, {})
        assert run_module(gm_flat).return_value == 20

    def test_full_benchmark_resequence(self):
        from repro.opt.pipeline import OptLevel, optimize_module
        from repro.suite.registry import get_benchmark
        from repro.suite.runner import compile_benchmark
        spec = get_benchmark("flatten")
        module = compile_benchmark(spec)
        gm, _ = optimize_module(module, OptLevel.PIPELINED)
        self._run_both(gm, spec.generate_inputs(0))


SUITE = [spec.name for spec in all_benchmarks()]


class TestResequenceSuite:
    """The re-sequentialized module is the base every ASIP design is
    measured on; it must compute what the optimized module computes."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("name", SUITE)
    def test_resequenced_matches_optimized(self, name, level):
        spec = get_benchmark(name)
        gm, _ = optimize_module(compile_benchmark(spec), OptLevel(level))
        inputs = spec.generate_inputs(0)
        expected = run_module(gm, inputs)
        actual = run_module(resequence_module(gm), inputs)
        assert actual.return_value == expected.return_value
        assert actual.globals_after == expected.globals_after

    @pytest.mark.parametrize("name", ["flatten", "smooth", "edge"])
    def test_level2_exploration_completes(self, name):
        # Capture moves named %r0, %r1... used to overwrite level-2
        # renamed registers of the same name (flatten looped forever).
        spec = get_benchmark(name)
        result = explore_designs(compile_benchmark(spec),
                                 spec.generate_inputs(0),
                                 level=OptLevel.RENAMED)
        assert result.measured

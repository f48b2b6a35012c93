"""The program-graph interpreter.

Executes a :class:`~repro.cfg.graph.GraphModule` under VLIW node semantics:
all operations of a node read their sources at the start of the cycle and
commit their writes at the end.  Because both the sequential level-0 graph
and every optimized graph run on the same engine, the interpreter serves
two roles:

* the paper's *profiler* (Figure 2, step 2) — it fills a
  :class:`~repro.sim.profile.ProfileData` with node and edge counts;
* the reproduction's *semantic oracle* — an optimizer transformation is
  correct only if the optimized graph produces identical outputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.cfg.graph import GraphModule, ProgramGraph
from repro.ir.instr import Instruction
from repro.ir.ops import Op
from repro.ir.values import ArraySymbol, Constant, VirtualReg
from repro.sim.memory import ArrayStorage
from repro.sim.profile import ProfileData
from repro.sim.values import (INTRINSIC_IMPL, float_div, int_div, int_mod,
                              shift_left, shift_right)

_MAX_CALL_DEPTH = 200


class MachineResult:
    """Outcome of one simulated run."""

    def __init__(self, return_value, globals_after: Dict[str, List],
                 profile: ProfileData):
        self.return_value = return_value
        self.globals_after = globals_after
        self.profile = profile

    @property
    def cycles(self) -> int:
        return self.profile.total_cycles()

    def array(self, name: str) -> List:
        try:
            return self.globals_after[name]
        except KeyError:
            raise SimulationError(f"no global array named {name!r}")

    def __repr__(self) -> str:
        return (f"<MachineResult ret={self.return_value!r} "
                f"cycles={self.cycles}>")


class _Frame:
    """One activation record."""

    __slots__ = ("regs", "arrays")

    def __init__(self):
        self.regs: Dict[str, object] = {}
        self.arrays: Dict[str, ArrayStorage] = {}


class GraphInterpreter:
    """Executes a graph module on given inputs, collecting a profile."""

    def __init__(self, module: GraphModule, max_cycles: int = 200_000_000):
        self.module = module
        self.max_cycles = max_cycles
        self._cycles = 0
        self.profile = ProfileData()
        self.globals: Dict[str, ArrayStorage] = {}

    # -- public API -----------------------------------------------------------------

    def run(self, inputs: Optional[Dict[str, Sequence]] = None
            ) -> MachineResult:
        """Execute ``main`` with globals bound to *inputs*."""
        self._cycles = 0
        self.profile = ProfileData()
        self.globals = {}
        for name, symbol in self.module.global_arrays.items():
            init = self.module.array_initializers.get(name)
            self.globals[name] = ArrayStorage(symbol, init)
        if inputs:
            for name, values in inputs.items():
                if name not in self.globals:
                    raise SimulationError(
                        f"input {name!r} does not match any global array")
                self.globals[name].fill_from(values)
        entry = self.module.entry
        ret = self._run_graph(entry, [], depth=0)
        snapshot = {name: storage.snapshot()
                    for name, storage in self.globals.items()}
        return MachineResult(ret, snapshot, self.profile)

    # -- execution -------------------------------------------------------------------

    def _run_graph(self, graph: ProgramGraph, args: List, depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise SimulationError(
                f"call depth exceeded in {graph.name!r} (runaway recursion?)")
        self.profile.count_call(graph.name)
        frame = _Frame()
        if len(args) != len(graph.params):
            raise SimulationError(
                f"{graph.name!r} expects {len(graph.params)} arguments, "
                f"got {len(args)}")
        for param, arg in zip(graph.params, args):
            if isinstance(param, VirtualReg):
                frame.regs[param.name] = arg
            else:  # array parameter: bind by reference
                if not isinstance(arg, ArrayStorage):
                    raise SimulationError(
                        f"{graph.name!r}: array parameter {param.name!r} "
                        f"bound to non-array {arg!r}")
                frame.arrays[param.name] = arg
        for arr in graph.local_arrays:
            frame.arrays[arr.name] = ArrayStorage(arr)

        fn_name = graph.name
        nodes = graph.nodes
        nid = graph.entry
        count_node = self.profile.count_node
        count_edge = self.profile.count_edge

        while True:
            self._cycles += 1
            if self._cycles > self.max_cycles:
                raise SimulationError(
                    f"cycle limit ({self.max_cycles}) exceeded; "
                    f"infinite loop in {fn_name!r}?")
            count_node(fn_name, nid)
            node = nodes[nid]

            # --- read phase: evaluate every op against pre-cycle state.
            reg_writes: List = []
            store_writes: List = []
            for ins in node.ops:
                self._execute_op(ins, frame, reg_writes, store_writes, depth)

            control = node.control
            branch_taken: Optional[bool] = None
            ret_value = None
            if control is not None:
                if control.op is Op.BR:
                    branch_taken = self._read(control.srcs[0], frame) != 0
                else:  # RET
                    if control.srcs:
                        ret_value = self._read(control.srcs[0], frame)

            # --- write phase: commit registers then memory.
            for reg_name, value in reg_writes:
                frame.regs[reg_name] = value
            for storage, index, value in store_writes:
                storage.store(index, value)

            # --- control transfer.
            if control is not None and control.op is Op.RET:
                return ret_value
            succs = node.succs
            if control is not None and control.op is Op.BR:
                nxt = succs[0] if branch_taken else succs[1]
            else:
                if len(succs) != 1:
                    raise SimulationError(
                        f"{fn_name}: node {nid} has {len(succs)} successors "
                        f"but no branch")
                nxt = succs[0]
            count_edge(fn_name, nid, nxt)
            nid = nxt

    # -- one operation ---------------------------------------------------------------

    def _read(self, operand, frame: _Frame):
        if isinstance(operand, Constant):
            return operand.value
        if isinstance(operand, VirtualReg):
            try:
                return frame.regs[operand.name]
            except KeyError:
                raise SimulationError(
                    f"read of undefined register {operand.name!r}")
        raise SimulationError(f"cannot read operand {operand!r}")

    def _array(self, ins: Instruction, frame: _Frame) -> ArrayStorage:
        name = ins.array.name
        storage = frame.arrays.get(name)
        if storage is None:
            storage = self.globals.get(name)
        if storage is None:
            raise SimulationError(f"unknown array {name!r}")
        return storage

    def _execute_op(self, ins: Instruction, frame: _Frame,
                    reg_writes: List, store_writes: List,
                    depth: int) -> None:
        op = ins.op
        read = self._read

        if op is Op.ADD:
            value = read(ins.srcs[0], frame) + read(ins.srcs[1], frame)
        elif op is Op.SUB:
            value = read(ins.srcs[0], frame) - read(ins.srcs[1], frame)
        elif op is Op.MUL:
            value = read(ins.srcs[0], frame) * read(ins.srcs[1], frame)
        elif op is Op.DIV:
            value = int_div(read(ins.srcs[0], frame),
                            read(ins.srcs[1], frame))
        elif op is Op.MOD:
            value = int_mod(read(ins.srcs[0], frame),
                            read(ins.srcs[1], frame))
        elif op is Op.NEG:
            value = -read(ins.srcs[0], frame)
        elif op is Op.AND:
            value = read(ins.srcs[0], frame) & read(ins.srcs[1], frame)
        elif op is Op.OR:
            value = read(ins.srcs[0], frame) | read(ins.srcs[1], frame)
        elif op is Op.XOR:
            value = read(ins.srcs[0], frame) ^ read(ins.srcs[1], frame)
        elif op is Op.NOT:
            value = ~read(ins.srcs[0], frame)
        elif op is Op.SHL:
            value = shift_left(read(ins.srcs[0], frame),
                               read(ins.srcs[1], frame))
        elif op is Op.SHR:
            value = shift_right(read(ins.srcs[0], frame),
                                read(ins.srcs[1], frame))
        elif op in (Op.CMPEQ, Op.FCMPEQ):
            value = int(read(ins.srcs[0], frame) == read(ins.srcs[1], frame))
        elif op in (Op.CMPNE, Op.FCMPNE):
            value = int(read(ins.srcs[0], frame) != read(ins.srcs[1], frame))
        elif op in (Op.CMPLT, Op.FCMPLT):
            value = int(read(ins.srcs[0], frame) < read(ins.srcs[1], frame))
        elif op in (Op.CMPLE, Op.FCMPLE):
            value = int(read(ins.srcs[0], frame) <= read(ins.srcs[1], frame))
        elif op in (Op.CMPGT, Op.FCMPGT):
            value = int(read(ins.srcs[0], frame) > read(ins.srcs[1], frame))
        elif op in (Op.CMPGE, Op.FCMPGE):
            value = int(read(ins.srcs[0], frame) >= read(ins.srcs[1], frame))
        elif op is Op.FADD:
            value = read(ins.srcs[0], frame) + read(ins.srcs[1], frame)
        elif op is Op.FSUB:
            value = read(ins.srcs[0], frame) - read(ins.srcs[1], frame)
        elif op is Op.FMUL:
            value = read(ins.srcs[0], frame) * read(ins.srcs[1], frame)
        elif op is Op.FDIV:
            value = float_div(read(ins.srcs[0], frame),
                              read(ins.srcs[1], frame))
        elif op is Op.FNEG:
            value = -read(ins.srcs[0], frame)
        elif op is Op.ITOF:
            value = float(read(ins.srcs[0], frame))
        elif op is Op.FTOI:
            value = int(read(ins.srcs[0], frame))  # C truncation
        elif op in (Op.MOV, Op.FMOV):
            value = read(ins.srcs[0], frame)
        elif op in (Op.LOAD, Op.FLOAD):
            storage = self._array(ins, frame)
            value = storage.load(read(ins.srcs[0], frame))
        elif op in (Op.STORE, Op.FSTORE):
            storage = self._array(ins, frame)
            store_writes.append((storage,
                                 read(ins.srcs[1], frame),
                                 read(ins.srcs[0], frame)))
            return
        elif op is Op.INTRIN:
            impl = INTRINSIC_IMPL.get(ins.callee)
            if impl is None:
                raise SimulationError(f"unknown intrinsic {ins.callee!r}")
            value = impl(*(read(s, frame) for s in ins.srcs))
        elif op is Op.CALL:
            value = self._execute_call(ins, frame, depth)
            if ins.dest is None:
                return
        elif op is Op.CHAIN:
            # A fused chained instruction: its parts execute back-to-back
            # with operand forwarding, atomically within this node's cycle.
            for part in ins.parts:
                part_regs: List = []
                part_stores: List = []
                self._execute_op(part, frame, part_regs, part_stores, depth)
                for reg_name, v in part_regs:
                    frame.regs[reg_name] = v
                for storage, index, v in part_stores:
                    storage.store(index, v)
            return
        elif op is Op.NOP:
            return
        else:  # pragma: no cover
            raise SimulationError(f"cannot execute {ins}")

        if ins.dest is not None:
            reg_writes.append((ins.dest.name, value))

    def _execute_call(self, ins: Instruction, frame: _Frame, depth: int):
        callee = self.module.graphs.get(ins.callee)
        if callee is None:
            raise SimulationError(f"call to unknown function {ins.callee!r}")
        args: List = []
        for src in ins.srcs:
            if isinstance(src, ArraySymbol):
                storage = frame.arrays.get(src.name) \
                    or self.globals.get(src.name)
                if storage is None:
                    raise SimulationError(
                        f"array argument {src.name!r} is not bound")
                args.append(storage)
            else:
                args.append(self._read(src, frame))
        return self._run_graph(callee, args, depth + 1)


#: Engines ``run_module`` can dispatch to.  ``"codegen"`` lowers each graph
#: to flat words and exec-compiles specialized Python source per graph
#: (:mod:`repro.sim.codegen`); ``"reference"`` is the tree-walking
#: :class:`GraphInterpreter`, kept as the semantic oracle the codegen
#: engine is differentially tested against.
ENGINES = ("codegen", "reference")

#: The engine a simulation uses unless its caller names one.
DEFAULT_ENGINE = "codegen"


def ensure_engine(engine: str) -> str:
    """Validate an engine name *before* any expensive work starts.

    Entry points that fan out (the study executor, the exploration loop)
    call this up front so a typo'd ``--engine`` value raises one clean
    error instead of failing deep inside a worker process mid-run.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r} (expected one of {ENGINES})")
    return engine


def run_module(module: GraphModule,
               inputs: Optional[Dict[str, Sequence]] = None,
               max_cycles: int = 200_000_000,
               engine: str = DEFAULT_ENGINE) -> MachineResult:
    """Simulate *module* once on the selected *engine*.

    Both engines produce bit-identical :class:`MachineResult`\\ s (return
    value, memory state and profile); the codegen engine caches its
    generated form on the module, so repeated runs — the exploration
    loop, the study matrix — only pay generation once.
    """
    return run_module_batch(module, [inputs], max_cycles, engine)[0]


def run_module_batch(module: GraphModule,
                     inputs_list: Sequence[Optional[Dict[str, Sequence]]],
                     max_cycles: int = 200_000_000,
                     engine: str = DEFAULT_ENGINE) -> List[MachineResult]:
    """Simulate *module* on every input set of *inputs_list*, in order.

    The multi-seed entry point: on the codegen engine the module is
    generated (and its content digest walked) once for the whole batch
    rather than once per run, while every run still gets fresh
    globals and a fresh profile.  Results are bit-identical to calling
    :func:`run_module` once per input set, on either engine.
    """
    if ensure_engine(engine) == "reference":
        return [GraphInterpreter(module, max_cycles).run(inputs)
                for inputs in inputs_list]
    from repro.sim.codegen import CodegenEngine
    return CodegenEngine(module, max_cycles).run_batch(inputs_list)


# The benchmark harness's tracer wraps this name; it predates the merge of
# the batch entry points and stays as an alias so traces keep resolving.
run_module_batch_auto = run_module_batch

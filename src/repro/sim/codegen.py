"""The exec-compiled codegen engine.

:func:`generate_module` walks the *lowered words* produced by
:func:`repro.sim.engine.lower_module` and emits one specialized Python
**source function per graph** —

* straight-line word runs become straight-line statements over *local
  variables* (``r3 = r1 + r2``): registers are locals, constants are
  inlined literals, array storages are hoisted into locals once per
  frame, so the hot path is plain ``LOAD_FAST`` arithmetic with zero
  interpretive overhead;
* control flow becomes ``while``/``if`` structure: a ``J`` to the next
  word that nothing else jumps to is merged away at generation time,
  and the remaining jump targets (word indices) go through an O(log n)
  binary dispatch tree over a block counter — a transfer costs a few
  integer compares;
* profile counting is one counter per *branch* edge, held in integer
  locals and folded into the shared ``state.edge_hits`` arrays at frame
  exit, then reconstructed exactly by
  :meth:`_LoweredGraph.resolve_counters`.

Each graph's source is compiled on its own and ``exec``-uted once per
module; the functions are cached on the module next to its lowering,
under the module's content key (stripped at pickle boundaries by
``GraphModule.__getstate__`` and regenerated lazily per process), and
neither holds a reference back to the module.  The
source text itself is not kept in memory: it goes into the disk-cache
entry, and :func:`emit_sources` re-emits it on demand.  Results are bit-identical to the reference
interpreter — return value, memory, full node/edge/call profiles and
error behavior — pinned by ``tests/test_codegen.py`` and the fuzz
harness in ``tests/test_fuzz_engines.py``.
"""

from __future__ import annotations

import hashlib
import marshal
import pickle
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.cfg.graph import GraphModule
from repro.sim.engine import (BIN, BR, CALL, ERROR, INTRN, J, JB,
                              JUMP_SLOTS, LOAD, LoweredModule, MOV, RET, ST,
                              TERMINAL_OPS, TEST, UN, _LoweredGraph, _UNDEF,
                              decode_operand, lower_module,
                              run_lowered_module)
from repro.sim.diskcache import content_key, get_cache, verify_on_load
from repro.sim.machine import _MAX_CALL_DEPTH, GraphInterpreter, MachineResult
from repro.sim.memory import ArrayStorage


class _FunctionEmitter:
    """Emits the Python source of one lowered graph."""

    def __init__(self, lg: _LoweredGraph, fn_name: str,
                 fn_of_graph: Dict[str, str]):
        self.lg = lg
        self.fn_name = fn_name
        self.fn_of_graph = fn_of_graph
        self.lines: List[str] = []
        self.indent = 1
        #: objects that cannot be inlined as literals (operation function
        #: objects, array symbols, placeholder objects), bound as default
        #: arguments so the hot loop reads them with LOAD_FAST.
        self.objs: List[object] = []
        self._obj_names: Dict[int, str] = {}

    # -- small helpers -------------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def paste(self, block: List[str]) -> None:
        """Insert pre-rendered block lines at the current indent."""
        prefix = "    " * self.indent
        self.lines.extend(prefix + line for line in block)

    @staticmethod
    def _r(slot: int) -> str:
        """Local-variable name of a register slot (negative = scratch)."""
        return f"r{slot}" if slot >= 0 else f"t{-slot}"

    def _k(self, obj) -> str:
        """Default-argument name binding *obj* into the function."""
        name = self._obj_names.get(id(obj))
        if name is None:
            name = f"K{len(self.objs)}"
            self._obj_names[id(obj)] = name
            self.objs.append(obj)
        return name

    def _const(self, value) -> str:
        """Source text of an inlined constant.

        ``repr`` round-trips every int and every *finite* float, but
        constant folding can produce ``inf``/``nan`` (e.g. ``1e308 *
        1e308`` folded at level 1), whose reprs are bare names that do
        not exist in the generated namespace — those are bound as
        default arguments instead.
        """
        if isinstance(value, float) and \
                (value != value or value in (float("inf"), float("-inf"))):
            return self._k(value)
        return repr(value)

    def _operand(self, operand) -> str:
        """Source text of a word operand; a checked register read first
        emits its undefined-register guard."""
        kind, payload, name = decode_operand(operand)
        if kind == "c":
            return self._const(payload)
        reg = self._r(payload)
        if name is not None:
            message = f"read of undefined register {name!r}"
            self.emit(f"if {reg} is _UNDEF:")
            self.emit(f"    raise SimulationError({message!r})")
        return reg

    def _emit_limit_check(self) -> None:
        tail = f"exceeded; infinite loop in {self.lg.name!r}?"
        self.emit("n += 1")
        self.emit("if n > limit:")
        self.emit("    cyc[0] = n")
        self.emit('    raise SimulationError(f"cycle limit ({limit}) "'
                  f" {tail!r})")

    # -- block discovery -----------------------------------------------------------

    def _analyze(self) -> List[int]:
        """Block start indices, ascending: the word list split into
        labeled blocks.

        A word starts a block when it is the entry or the target of any
        jump — except a single forward fall (a ``J`` from the immediately
        preceding word with no other reference), which merges into its
        predecessor's straight line.
        """
        words = self.lg.words
        refs: Dict[int, List[Tuple[int, int]]] = {}  # target -> [(src, op)]
        for i, word in enumerate(words):
            for slot in JUMP_SLOTS.get(word[0], ()):
                refs.setdefault(word[slot], []).append((i, word[0]))
        entry = self.lg.entry_word
        starts = {entry}
        for target, sources in refs.items():
            if len(sources) == 1 and target != entry:
                src, op = sources[0]
                if target == src + 1 and op == J:
                    continue  # adjacent forward fall: merged away
            starts.add(target)
        return sorted(starts)

    # -- per-word statement emission -----------------------------------------------

    def _emit_stmt(self, word: list) -> None:
        """Emit the computational effect of one word (jump part excluded)."""
        op = word[0]
        r = self._r
        if op == MOV:
            value = self._operand(word[2])
            self.emit(f"{r(word[1])} = {value}")
            return
        if op == BIN:
            a = self._operand(word[3])
            b = self._operand(word[4])
            if isinstance(word[2], str):
                self.emit(f"{r(word[1])} = {a} {word[2]} {b}")
            else:
                self.emit(f"{r(word[1])} = {self._k(word[2])}({a}, {b})")
            return
        if op == UN:
            a = self._operand(word[3])
            if isinstance(word[2], str):
                self.emit(f"{r(word[1])} = {word[2]}{a}")
            else:
                self.emit(f"{r(word[1])} = {self._k(word[2])}({a})")
            return
        if op == LOAD:
            index = self._operand(word[3])
            k = word[2]
            self.emit(f"if 0 <= {index} < a{k}.size:")
            self.emit(f"    {r(word[1])} = a{k}.data[{index}]")
            self.emit("else:")
            self.emit(f"    a{k}.load({index})")
            return
        if op == ST:
            index = self._operand(word[2])
            value = self._operand(word[3])
            self.emit(f"a{word[1]}.store({index}, {value})")
            return
        if op == TEST:
            self.emit(f"{r(word[1])} = {r(word[2])} != 0")
            return
        if op == INTRN:
            self._emit_intrinsic(word)
            return
        if op == CALL:
            self._emit_call(word)
            return
        raise SimulationError(
            f"cannot generate code for word {word!r}")  # pragma: no cover

    def _emit_intrinsic(self, word: list) -> None:
        args = []
        for operand in word[3]:
            if isinstance(operand, str):
                # unreadable operand: raises when (and only when) run
                self.emit(f"raise SimulationError({operand!r})")
                return
            args.append(self._operand(operand))
        self.emit(f"{self._r(word[1])} = "
                  f"{self._k(word[2])}({', '.join(args)})")

    def _emit_call(self, word: list) -> None:
        callee, dspec, specs = word[1], word[2], word[3]
        if callee not in self.fn_of_graph:
            message = f"call to unknown function {callee!r}"
            self.emit(f"raise SimulationError({message!r})")
            return
        args = []
        for kind, payload, aname in specs:
            if kind == 0:
                reg = self._r(payload)
                message = f"read of undefined register {aname!r}"
                self.emit(f"if {reg} is _UNDEF:")
                self.emit(f"    raise SimulationError({message!r})")
                args.append(reg)
            elif kind == 1:
                args.append(self._const(payload))
            elif kind == 2:
                args.append(f"a{payload}")
            elif kind == 3:
                message = f"array argument {payload!r} is not bound"
                self.emit(f"raise SimulationError({message!r})")
                return
            else:
                self.emit(f"raise SimulationError({payload!r})")
                return
        self.emit("cyc[0] = n")
        self.emit(f"_t = G[{self.fn_of_graph[callee]!r}]"
                  f"([{', '.join(args)}], state)")
        self.emit("n = cyc[0]")
        if dspec is not None:
            self.emit(f"{self._r(dspec)} = _t")

    def _emit_return(self, word: list, counted: List[int]) -> None:
        value = "None" if word[1] is None else self._operand(word[1])
        self.emit("cyc[0] = n")
        for e in counted:
            self.emit(f"eh[{e}] += e{e}")
        self.emit(f"return {value}")

    # -- block + dispatch emission ---------------------------------------------------

    def _emit_block(self, start: int, words, starts_set: Set[int],
                    ordinal_of: Dict[int, int], counted: List[int]) -> None:
        k = start
        while True:
            word = words[k]
            op = word[0]
            if op not in TERMINAL_OPS:
                self._emit_stmt(word)
                k += 1
                continue
            if op == RET:
                self._emit_return(word, counted)
                return
            if op == ERROR:
                self.emit(f"raise SimulationError({word[1]!r})")
                return
            if op == BR:
                self._emit_limit_check()
                self.emit(f"if {self._r(word[1])} != 0:")
                self.emit(f"    e{word[2]} += 1")
                self.emit(f"    pc = {ordinal_of[word[3]]}")
                self.emit("else:")
                self.emit(f"    e{word[4]} += 1")
                self.emit(f"    pc = {ordinal_of[word[5]]}")
                self.emit("continue")
                return
            if op == JB:
                self._emit_limit_check()
                self.emit(f"pc = {ordinal_of[word[1]]}")
                self.emit("continue")
                return
            target = word[1]  # J
            if target == k + 1 and target not in starts_set:
                k = target  # merged forward fall: keep the straight line
                continue
            self.emit(f"pc = {ordinal_of[target]}")
            self.emit("continue")
            return

    def _emit_dispatch(self, lo: int, hi: int,
                       blocks: Dict[int, List[str]]) -> None:
        """Binary dispatch tree over contiguous block ordinals."""
        if lo == hi:
            self.paste(blocks[lo])
            return
        mid = (lo + hi) // 2
        self.emit(f"if pc <= {mid}:")
        self.indent += 1
        self._emit_dispatch(lo, mid, blocks)
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self._emit_dispatch(mid + 1, hi, blocks)
        self.indent -= 1

    # -- whole function --------------------------------------------------------------

    def _emit_prologue(self) -> List[int]:
        """Frame setup (arity, registers, arrays, counters); returns the
        counted-edge index list (empty when the function raises before
        reaching the dispatch loop)."""
        lg = self.lg
        name = lg.name
        self.emit("depth = state.depth")
        message = f"call depth exceeded in {name!r} (runaway recursion?)"
        self.emit(f"if depth > {_MAX_CALL_DEPTH}:")
        self.emit(f"    raise SimulationError({message!r})")
        self.emit("cc = state.call_counts")
        self.emit(f"cc[{name!r}] = cc.get({name!r}, 0) + 1")
        prefix = f"{name!r} expects {lg.n_params} arguments, got "
        self.emit(f"if len(args) != {lg.n_params}:")
        self.emit(f"    raise SimulationError({prefix!r} + "
                  "str(len(args)))")

        named = lg.n_regs - 1 - lg.scratch_watermark
        if named > 0:
            self.emit(" = ".join(f"r{s}" for s in range(1, named + 1))
                      + " = _UNDEF")
        if lg.scratch_watermark:
            self.emit(" = ".join(f"t{i}" for i in
                                 range(1, lg.scratch_watermark + 1))
                      + " = _UNDEF")

        for i, (is_reg, slot, pname) in enumerate(lg.param_plan):
            if is_reg:
                self.emit(f"r{slot} = args[{i}]")
            else:
                prefix = (f"{name!r}: array parameter {pname!r} "
                          f"bound to non-array ")
                self.emit(f"_t = args[{i}]")
                self.emit("if not isinstance(_t, ArrayStorage):")
                self.emit(f"    raise SimulationError({prefix!r} + "
                          "repr(_t))")
                self.emit(f"a{slot} = _t")
        for slot, symbol in lg.local_plan:
            self.emit(f"a{slot} = ArrayStorage({self._k(symbol)})")
        if lg.global_plan:
            self.emit("_g = state.globals")
            for slot, gname in lg.global_plan:
                self.emit(f"a{slot} = _g[{gname!r}]")
        for slot, placeholder in lg.missing_plan:
            self.emit(f"a{slot} = {self._k(placeholder)}")

        if lg.entry_word is None:
            message = f"{name!r} has no entry node"
            self.emit(f"raise SimulationError({message!r})")
            return []

        counted = sorted({word[slot]
                          for word in lg.words if word[0] == BR
                          for slot in (2, 4)})
        self.emit(f"eh = state.edge_hits[{name!r}]")
        if counted:
            self.emit(" = ".join(f"e{e}" for e in counted) + " = 0")
        self.emit("cyc = state.cyc")
        self.emit("limit = state.max_cycles")
        self.emit("n = cyc[0]")
        self._emit_limit_check()
        return counted

    def build(self) -> str:
        lg = self.lg
        counted = self._emit_prologue()
        if lg.entry_word is not None:
            words, entry = lg.words, lg.entry_word
            starts = self._analyze()
            starts_set = set(starts)
            ordinal_of = {idx: i for i, idx in enumerate(starts)}
            blocks: Dict[int, List[str]] = {}
            saved = self.lines
            for idx in starts:
                self.lines = []
                self.indent = 0
                self._emit_block(idx, words, starts_set, ordinal_of,
                                 counted)
                blocks[ordinal_of[idx]] = self.lines
            self.lines = saved
            self.indent = 1

            self.emit("state.depth = depth + 1")
            self.emit("try:")
            self.indent += 1
            if len(starts) > 1:
                self.emit(f"pc = {ordinal_of[entry]}")
            self.emit("while True:")
            self.indent += 1
            if len(starts) == 1:
                self.paste(blocks[0])
            else:
                self._emit_dispatch(0, len(starts) - 1, blocks)
            self.indent -= 2
            self.emit("finally:")
            self.emit("    state.depth = depth")

        params = ["args", "state", "_UNDEF=_UNDEF",
                  "ArrayStorage=ArrayStorage",
                  "SimulationError=SimulationError", "G=G"]
        params.extend(f"K{i}=_{self.fn_name}_K{i}"
                      for i in range(len(self.objs)))
        header = f"def {self.fn_name}({', '.join(params)}):"
        return "\n".join([header] + self.lines) + "\n"


def emit_sources(lowered: LoweredModule) -> Tuple[List[str],
                                                  Dict[str, object]]:
    """The Python source of every lowered graph, in graph order, plus the
    non-literal constants the sources bind as default arguments."""
    fn_of_graph = {name: f"_f{i}" for i, name in enumerate(lowered.graphs)}
    consts: Dict[str, object] = {}
    sources: List[str] = []
    for name, lg in lowered.graphs.items():
        emitter = _FunctionEmitter(lg, fn_of_graph[name], fn_of_graph)
        sources.append(emitter.build())
        for i, obj in enumerate(emitter.objs):
            consts[f"_{fn_of_graph[name]}_K{i}"] = obj
    return sources, consts


def _compile_sources(name: str, sources: Sequence[str]) -> tuple:
    """One code object per graph source of module *name*: a whole
    module's source in one ``compile`` call leaves a large arena behind
    in the process's RSS."""
    filename = f"<repro-codegen:{name}>"
    return tuple(compile(source, filename, "exec") for source in sources)


class GeneratedModule:
    """All graphs of one :class:`GraphModule` as exec-compiled functions.

    ``lowered`` is the :class:`LoweredModule` the functions were emitted
    from; the run frame reuses its per-graph profile-reconstruction
    tables (:meth:`_LoweredGraph.resolve_counters`) unchanged.  ``fns``
    maps each graph name to its function.  Like the lowering, it does
    not keep the module it was generated for, so the module's
    ``_compiled`` slot holds no reference back to the module.
    """

    def __init__(self, lowered: LoweredModule,
                 consts: Dict[str, object], codes: Sequence) -> None:
        self.lowered = lowered
        self.fns: Dict[str, object] = {}
        namespace: Dict[str, object] = {
            "_UNDEF": _UNDEF,
            "ArrayStorage": ArrayStorage,
            "SimulationError": SimulationError,
            "G": {},
        }
        namespace.update(consts)
        for code in codes:
            exec(code, namespace)
        dispatch: Dict[str, object] = namespace["G"]  # type: ignore
        for i, name in enumerate(lowered.graphs):
            fn = namespace[f"_f{i}"]
            dispatch[f"_f{i}"] = fn
            self.fns[name] = fn

    @classmethod
    def from_payload(cls, name: str, payload: Dict[str, object],
                     lowered: Optional[LoweredModule] = None
                     ) -> "GeneratedModule":
        """Rebuild module *name* from a disk-cache entry, skipping
        lowering, source emission and (when the marshalled code objects
        verify and load) compilation; a blob whose checksum does not
        match falls back to compiling the stored sources under *name*.
        A *lowered* form the module already holds for the entry's key is
        kept; otherwise the entry's lowered graphs are used."""
        if lowered is None:
            lowered = LoweredModule.from_graphs(payload["graphs"])
        codes = _blob_codes(payload)
        if not isinstance(codes, tuple) or \
                len(codes) != len(lowered.graphs):
            codes = _compile_sources(name, payload["sources"])
        return cls(lowered, payload["consts"], codes)


def _blob_codes(payload: Dict[str, object]):
    """The entry's unmarshalled code objects, or ``None`` when the blob
    is absent, fails its checksum or does not unmarshal (a load then
    compiles the stored sources)."""
    blob = payload.get("code")
    if not isinstance(blob, bytes) or \
            hashlib.sha256(blob).hexdigest() != payload.get("code_sha"):
        return None
    try:
        return marshal.loads(blob)
    except Exception:
        return None


def _disk_payload(lowered: LoweredModule, sources: List[str],
                  consts: Dict[str, object], codes: tuple
                  ) -> Dict[str, object]:
    """The disk-cache entry: lowered graphs (the run frame and the
    profile-reconstruction tables need them), the emitted sources (the
    fallback for a damaged code blob, and what the verify-on-load gate
    compares), their non-literal constants, and the marshalled code
    objects so a warm load skips parsing and compiling too.  The marshal
    blob travels with its own checksum: ``marshal.loads`` is documented
    as unsafe on erroneous bytes (it may crash rather than raise), so a
    load must be able to reject a damaged blob *before* handing it to
    marshal."""
    blob = marshal.dumps(codes)
    return {"graphs": lowered.graphs, "sources": tuple(sources),
            "consts": consts, "code": blob,
            "code_sha": hashlib.sha256(blob).hexdigest()}


def payload_mismatch(payload: Dict[str, object],
                     graphs: Dict[str, _LoweredGraph], sources: List[str],
                     consts: Dict[str, object], codes: Sequence
                     ) -> Optional[str]:
    """The first part of a codegen entry that differs from one generation
    — lowered *graphs*, emitted *sources* and *consts*, compiled *codes*
    — or ``None`` when the entry holds exactly that program.

    Everything a later ungated load reads is compared: the stored
    sources, the constants they bind and the lowered graphs (the run
    frame and the profile-reconstruction tables), pickled in this
    process so that ``nan`` constants compare too, and the marshalled
    code whenever its checksum holds, since a load then runs it instead
    of the sources.  A part the comparison cannot read differs.
    """
    try:
        if list(payload["sources"]) != list(sources):
            return "sources"
        if _pickled(payload["consts"]) != _pickled(consts):
            return "consts"
        if _pickled(payload["graphs"]) != _pickled(graphs):
            return "graphs"
        stored = _blob_codes(payload)
        if stored is not None and stored != tuple(codes):
            return "code"
    except Exception:
        return "unreadable"
    return None


def _pickled(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def generate_module(module: GraphModule) -> GeneratedModule:
    """Exec-compiled form of *module*, cached on the module itself.

    Same slot as :func:`~repro.sim.engine.lower_module`: the module's
    ``_compiled`` slot, keyed by its content key
    (:func:`~repro.sim.diskcache.content_key`), holds the lowering and
    the generated code side by side, so the two can never disagree
    about which module state they compile.  The key is taken once per
    call and handed to the lowering on a miss.

    When the slot holds no code for the current key, the disk tier
    (:mod:`repro.sim.diskcache`) is consulted under the same key: a
    hit skips the lowering walk, the source emission and (via the
    marshalled code objects) the compile, leaving only the ``exec`` of
    the pre-built code; a lowering the slot already holds is kept.  A
    fresh generation publishes exactly one entry.

    Under the verify-on-load gate (``REPRO_VERIFY``) a hit is checked
    by comparison: the module is lowered, emitted and compiled as on a
    miss, and the entry is accepted only if it holds that program
    (:func:`payload_mismatch`).  An entry that does not is rejected and
    re-stored.  Either way the code that runs is compiled from the fresh
    sources; the entry's marshalled code is never used under the gate.
    """
    key = content_key(module)
    slot = module.__dict__.get("_compiled")
    lowered = None
    if slot is not None and slot[0] == key:
        if slot[2] is not None:
            return slot[2]
        lowered = slot[1]
    cache = get_cache()
    payload = None if cache is None else cache.load("codegen", key)
    if payload is not None and not verify_on_load():
        try:
            generated = GeneratedModule.from_payload(module.name, payload,
                                                     lowered)
        except Exception:
            cache.unusable("codegen")
        else:
            module._compiled = (key, generated.lowered, generated)
            return generated
        payload = None
    if lowered is None:
        lowered = lower_module(module, key)
    sources, consts = emit_sources(lowered)
    codes = _compile_sources(module.name, sources)
    if payload is not None and payload_mismatch(
            payload, lowered.graphs, sources, consts, codes) is not None:
        cache.reject("codegen")
        payload = None
    generated = GeneratedModule(lowered, consts, codes)
    if cache is not None and payload is None:
        cache.store("codegen", key,
                    _disk_payload(lowered, sources, consts, codes))
    module._compiled = (key, lowered, generated)
    return generated


class CodegenEngine:
    """Drop-in replacement for :class:`GraphInterpreter` (codegen)."""

    def __init__(self, module: GraphModule, max_cycles: int = 200_000_000):
        self.module = module
        self.max_cycles = max_cycles
        self.generated = generate_module(module)

    def run_batch(self, inputs_list: Sequence[Optional[Dict[str, Sequence]]]
                  ) -> List[MachineResult]:
        """Run N input sets through the same generated program.

        Generation (and the content-key lookup ``run_module`` pays per call)
        happens once for the whole batch; each input set executes
        with fresh globals and fresh profile counters, bit-identical to N
        independent :func:`~repro.sim.machine.run_module` calls.
        """
        return [self.run(inputs) for inputs in inputs_list]

    def run(self, inputs: Optional[Dict[str, Sequence]] = None
            ) -> MachineResult:
        """Execute ``main`` with globals bound to *inputs*.

        The frame around the generated functions — globals/input
        binding, branch-only runtime counters, exact profile
        reconstruction and the post-run cycle-limit check — is
        :func:`~repro.sim.engine.run_lowered_module`.

        The generated code counts cycles only at branches, back edges
        and calls, so it sees a cycle-limit overrun late: possibly in
        another function than the one running when the limit was
        crossed, or only after a later fault.  A run that faults is
        therefore replayed on the reference interpreter, which counts
        every cycle; if the replay overruns the limit, its error is the
        one raised.  Other faults keep the generated code's own error.
        """
        fns = self.generated.fns
        try:
            return run_lowered_module(
                self.module, self.generated.lowered, self.max_cycles,
                inputs, lambda name, state: fns[name]([], state))
        except SimulationError as exc:
            try:
                GraphInterpreter(self.module, self.max_cycles).run(inputs)
            except SimulationError as replayed:
                if str(replayed).startswith("cycle limit"):
                    raise replayed from None
            except LookupError:
                pass  # a malformed graph the interpreter cannot walk
            raise exc

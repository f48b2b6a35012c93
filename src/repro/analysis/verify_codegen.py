"""Static checks over generated codegen source, parsed via ``ast``.

The codegen engine ``exec``-s Python source emitted from the lowered words.
This module proves a stored source text well-formed *before* anything
executes it:

* **definite assignment** — every name the generated function reads is a
  parameter, a known builtin, or assigned on every path before the read
  (a conservative dataflow walk over the AST: ``if`` joins intersect,
  loop-body bindings do not escape, a branch that raises/returns/continues
  does not constrain the join);
* **constant bindings** — every default argument (``K3=_f0_K3``) resolves
  to a known namespace name or a stored const;
* **counter discipline** — the per-frame branch-edge counter locals
  (``e7``) are initialized to zero, and the full counted set is folded
  into ``eh`` exactly once immediately before *every* ``return``
  (preceded by the ``cyc[0] = n`` cycle write-back);
* **bounds guards** — every ``a3.data[idx]`` fast-path read sits inside an
  ``if 0 <= idx < a3.size:`` guard over the *same* index expression;
* **dispatch targets** — every ``pc = N`` constant stays inside the block
  table the emitter's own ``_analyze`` derives from the words.

``verify_codegen_payload`` bundles these with the lowered-graph
cross-checks for a raw disk-cache payload — the gate the cache load path
runs under ``REPRO_VERIFY=1``, entirely before ``from_payload`` compiles or
``exec``-utes anything.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import VerifyResult
from repro.sim import engine as _eng

#: Builtins the emitters are allowed to reference without binding.
_BUILTIN_NAMES = frozenset({
    "isinstance", "len", "str", "repr", "max", "min", "range", "sorted",
    "abs", "float", "int", "list", "tuple",
})

#: Names pre-bound in the exec namespace of every generated module.
_NAMESPACE_NAMES = frozenset({
    "_UNDEF", "ArrayStorage", "SimulationError", "G",
})


def _counted_of(lg) -> List[int]:
    """The counted-edge list exactly as the emitters derive it."""
    return sorted({word[slot] for word in lg.words
                   if isinstance(word, list) and len(word) == 6
                   and word[0] == _eng.BR
                   for slot in (2, 4)})


# -- definite assignment -----------------------------------------------------------


def _target_names(target: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _expr_reads(node: ast.AST, bound: Set[str], report) -> None:
    """Report every Load of a name not in *bound* (comprehension targets
    bind inside their own scope)."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in bound \
                and node.id not in _BUILTIN_NAMES:
            report(node.id, getattr(node, "lineno", 0))
        return
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.DictComp)):
        inner = set(bound)
        for gen in node.generators:
            _expr_reads(gen.iter, inner, report)
            inner |= {n for n in _comp_target_names(gen.target)}
            for cond in gen.ifs:
                _expr_reads(cond, inner, report)
        if isinstance(node, ast.DictComp):
            _expr_reads(node.key, inner, report)
            _expr_reads(node.value, inner, report)
        else:
            _expr_reads(node.elt, inner, report)
        return
    for child in ast.iter_child_nodes(node):
        _expr_reads(child, bound, report)


def _comp_target_names(target: ast.expr) -> Set[str]:
    return {node.id for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _is_oob_load(expr: ast.expr) -> bool:
    """Match a bare ``<name>.load(...)`` call expression."""
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "load"
            and isinstance(expr.func.value, ast.Name))


def _has_break(stmts: Iterable[ast.stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ast.Break):
            return True
        if isinstance(stmt, ast.If):
            if _has_break(stmt.body) or _has_break(stmt.orelse):
                return True
        elif isinstance(stmt, ast.Try):
            if _has_break(stmt.body) or _has_break(stmt.finalbody):
                return True
            for handler in stmt.handlers:
                if _has_break(handler.body):
                    return True
        # breaks inside nested loops belong to those loops
    return False


def _walk_block(stmts: List[ast.stmt], bound: Set[str],
                report) -> Tuple[Set[str], bool]:
    """Conservative definite-assignment walk; returns (bound-after,
    terminates) where *terminates* means control never falls off the end
    of the block (return/raise/continue/break/infinite loop)."""
    bound = set(bound)
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            _expr_reads(stmt.value, bound, report)
            for target in stmt.targets:
                _expr_reads(target, bound, report)  # subscript bases etc.
                bound |= _target_names(target)
        elif isinstance(stmt, ast.AugAssign):
            _expr_reads(stmt.value, bound, report)
            if isinstance(stmt.target, ast.Name):
                if stmt.target.id not in bound:
                    report(stmt.target.id, stmt.lineno)
                bound.add(stmt.target.id)
            else:
                _expr_reads(stmt.target, bound, report)
        elif isinstance(stmt, ast.If):
            _expr_reads(stmt.test, bound, report)
            b_then, t_then = _walk_block(stmt.body, bound, report)
            b_else, t_else = _walk_block(stmt.orelse, bound, report)
            if t_then and t_else:
                return bound, True
            if t_then:
                bound = b_else
            elif t_else:
                bound = b_then
            else:
                bound = b_then & b_else
        elif isinstance(stmt, ast.While):
            _expr_reads(stmt.test, bound, report)
            _walk_block(stmt.body, bound, report)
            _walk_block(stmt.orelse, bound, report)
            infinite = (isinstance(stmt.test, ast.Constant)
                        and stmt.test.value is True
                        and not _has_break(stmt.body))
            if infinite:
                return bound, True
        elif isinstance(stmt, ast.For):
            _expr_reads(stmt.iter, bound, report)
            inner = bound | _target_names(stmt.target) \
                | _comp_target_names(stmt.target)
            _walk_block(stmt.body, inner, report)
            _walk_block(stmt.orelse, bound, report)
        elif isinstance(stmt, ast.Try):
            b_try, t_try = _walk_block(stmt.body, bound, report)
            exits: List[Set[str]] = [] if t_try else [b_try]
            for handler in stmt.handlers:
                hb = set(bound)
                if handler.name:
                    hb.add(handler.name)
                b_h, t_h = _walk_block(handler.body, hb, report)
                if not t_h:
                    exits.append(b_h)
            if not exits:
                return bound, True
            after = exits[0]
            for b in exits[1:]:
                after = after & b
            b_fin, t_fin = _walk_block(stmt.finalbody, bound, report)
            bound = after | (b_fin - bound if not t_fin else set())
            if t_fin:
                return bound, True
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                _expr_reads(child, bound, report)
            return bound, True
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            return bound, True
        elif isinstance(stmt, ast.Expr):
            _expr_reads(stmt.value, bound, report)
            if _is_oob_load(stmt.value):
                # Bare ``arr.load(idx)`` only appears on the failing side
                # of a bounds guard, where ArrayStorage.load always raises.
                return bound, True
        elif isinstance(stmt, ast.Pass):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    _expr_reads(child, bound, report)
    return bound, False


def _check_definite_assignment(fn: ast.FunctionDef, result: VerifyResult,
                               gname: str, namespace: Set[str]) -> None:
    params = {arg.arg for arg in fn.args.args}
    params |= {arg.arg for arg in fn.args.posonlyargs}
    params |= {arg.arg for arg in fn.args.kwonlyargs}
    for default in list(fn.args.defaults) + \
            [d for d in fn.args.kw_defaults if d is not None]:
        for node in ast.walk(default):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                result.check(
                    node.id in namespace, "const-binding",
                    f"{fn.name}: default argument references "
                    f"{node.id!r}, which is neither a namespace name nor "
                    f"a stored const", gname)

    reported: Set[str] = set()

    def report(name: str, line: int) -> None:
        if name not in reported:
            reported.add(name)
            result.check(False, "unbound-name",
                         f"{fn.name} line {line}: name {name!r} may be "
                         f"read before assignment", gname)

    _walk_block(fn.body, params, report)
    result.checks += 1  # the definite-assignment pass itself is one check


# -- counter discipline ------------------------------------------------------------


def _iter_blocks(fn: ast.FunctionDef):
    """Yield every statement list in *fn* (bodies, orelses, handlers)."""
    stack: List[List[ast.stmt]] = [fn.body]
    while stack:
        block = stack.pop()
        yield block
        for stmt in block:
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub:
                    stack.append(sub)
            for handler in getattr(stmt, "handlers", ()) or ():
                stack.append(handler.body)


def _fold_edge(stmt: ast.stmt) -> Optional[Tuple[int, bool]]:
    """Match ``eh[E] += eE`` (optionally ``+ 1``); returns
    ``(edge, name_matches)`` or ``None`` for any other statement."""
    if not isinstance(stmt, ast.AugAssign) \
            or not isinstance(stmt.op, ast.Add):
        return None
    target = stmt.target
    if not (isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and target.value.id == "eh"):
        return None
    index = target.slice
    if not (isinstance(index, ast.Constant)
            and isinstance(index.value, int)):
        return None
    value_names = {node.id for node in ast.walk(stmt.value)
                   if isinstance(node, ast.Name)}
    if not any(name.startswith("e") for name in value_names):
        return None
    return index.value, f"e{index.value}" in value_names


def _is_cyc_writeback(stmt: ast.stmt) -> bool:
    """Match ``cyc[0] = n``."""
    return (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Subscript)
            and isinstance(stmt.targets[0].value, ast.Name)
            and stmt.targets[0].value.id == "cyc"
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id == "n")


def _check_counter_init(fn: ast.FunctionDef, counted: List[int],
                        result: VerifyResult, gname: str) -> None:
    """Every counted counter local must be zero-initialized somewhere."""
    initialized: Set[int] = set()
    for block in _iter_blocks(fn):
        for stmt in block:
            if isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.value, ast.Constant) \
                    and stmt.value.value == 0:
                for target in stmt.targets:
                    if isinstance(target, ast.Name) \
                            and target.id.startswith("e") \
                            and target.id[1:].isdigit():
                        initialized.add(int(target.id[1:]))
    missing = sorted(set(counted) - initialized)
    result.check(not missing, "counter-init",
                 f"{fn.name}: counter locals {missing} are never "
                 f"initialized to zero", gname)


def _check_counter_writeback(fn: ast.FunctionDef, counted: List[int],
                             result: VerifyResult, gname: str) -> None:
    """Codegen discipline: immediately before every ``return``, the full
    counted set is folded into ``eh`` exactly once, preceded by the
    ``cyc[0] = n`` cycle write-back; no stray ``eh`` writes elsewhere."""
    counted_set = set(counted)
    returns = 0
    for block in _iter_blocks(fn):
        run: List[int] = []
        run_ok = True
        for stmt in block:
            fold = _fold_edge(stmt)
            if fold is not None:
                edge, matches = fold
                run.append(edge)
                run_ok = run_ok and matches
                continue
            if isinstance(stmt, ast.Return):
                returns += 1
                result.check(
                    run_ok and sorted(run) == sorted(counted_set)
                    and len(run) == len(counted_set),
                    "counter-writeback",
                    f"{fn.name}: return folds counters {sorted(run)}, "
                    f"the words imply {sorted(counted_set)}", gname)
            elif run:
                result.check(False, "counter-writeback",
                             f"{fn.name} line {stmt.lineno}: counter "
                             f"fold run is not followed by a return",
                             gname)
            run = []
            run_ok = True
        if run:
            result.check(False, "counter-writeback",
                         f"{fn.name}: dangling counter fold run at end "
                         f"of block", gname)
    # Every return must carry the cycle write-back just before the folds.
    for block in _iter_blocks(fn):
        for i, stmt in enumerate(block):
            if not isinstance(stmt, ast.Return):
                continue
            j = i - 1
            while j >= 0 and _fold_edge(block[j]) is not None:
                j -= 1
            result.check(j >= 0 and _is_cyc_writeback(block[j]),
                         "cycle-writeback",
                         f"{fn.name} line {stmt.lineno}: return is not "
                         f"preceded by the cyc[0] write-back", gname)
    # The cycle-limit exit raises, so the return sweep above never sees
    # it — but the emitter persists the count there too (its guard body
    # is exactly ``cyc[0] = n`` then the raise).  Any ``a > b`` guard
    # that ends in a raise is that exit.
    for node in ast.walk(fn):
        if not (isinstance(node, ast.If) and isinstance(node.test,
                                                        ast.Compare)):
            continue
        if not (len(node.test.ops) == 1
                and isinstance(node.test.ops[0], ast.Gt)
                and isinstance(node.test.left, ast.Name)
                and isinstance(node.test.comparators[0], ast.Name)
                and node.body and isinstance(node.body[-1], ast.Raise)):
            continue  # e.g. the depth guard: fires before n is read
        result.check(len(node.body) == 2 and _is_cyc_writeback(node.body[0]),
                     "cycle-writeback",
                     f"{fn.name} line {node.lineno}: cycle-limit exit "
                     f"does not write back cyc[0] before raising", gname)


# -- bounds guards -----------------------------------------------------------------


def _match_bounds_guard(test: ast.expr) -> Optional[Tuple[str, str]]:
    """Match ``0 <= IDX < ARR.size`` -> (array name, dump of IDX)."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 2
            and isinstance(test.ops[0], ast.LtE)
            and isinstance(test.ops[1], ast.Lt)
            and isinstance(test.left, ast.Constant)
            and test.left.value == 0):
        return None
    index, size = test.comparators
    if not (isinstance(size, ast.Attribute) and size.attr == "size"
            and isinstance(size.value, ast.Name)):
        return None
    return size.value.id, ast.dump(index)


def _check_bounds_guards(fn: ast.FunctionDef, result: VerifyResult,
                         gname: str) -> None:
    """Every ``ARR.data[IDX]`` read must sit under a matching guard."""
    unguarded: List[int] = []

    def visit(node: ast.AST, guards: Tuple[Tuple[str, str], ...]) -> None:
        if isinstance(node, ast.If):
            guard = _match_bounds_guard(node.test)
            body_guards = guards + ((guard,) if guard else ())
            for child in node.body:
                visit(child, body_guards)
            for child in node.orelse:
                visit(child, guards)
            visit(node.test, guards)
            return
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "data" \
                and isinstance(node.value.value, ast.Name) \
                and isinstance(node.ctx, ast.Load):
            key = (node.value.value.id, ast.dump(node.slice))
            if key not in guards:
                unguarded.append(getattr(node, "lineno", 0))
        for child in ast.iter_child_nodes(node):
            visit(child, guards)

    for stmt in fn.body:
        visit(stmt, ())
    result.check(not unguarded, "unguarded-load",
                 f"{fn.name}: .data reads at line(s) {unguarded[:5]} "
                 "lack a matching bounds guard",
                 gname)


# -- dispatch targets ---------------------------------------------------------------


def _emitter_starts(lg, fn_of_graph: Dict[str, str]) -> Optional[List[int]]:
    """Block starts exactly as the generating emitter derives them."""
    if lg.entry_word is None:
        return None
    try:
        from repro.sim.codegen import _FunctionEmitter
        emitter = _FunctionEmitter(lg, fn_of_graph.get(lg.name, "_v"),
                                   fn_of_graph)
        starts = emitter._analyze()
    except Exception:
        return None
    return starts


def _check_dispatch_targets(fn: ast.FunctionDef, n_blocks: int,
                            result: VerifyResult, gname: str) -> None:
    bad: List[Tuple[int, int]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "pc" \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int) \
                and not 0 <= node.value.value < n_blocks:
            bad.append((getattr(node, "lineno", 0), node.value.value))
    result.check(not bad, "dispatch-target",
                 f"{fn.name}: block ordinals {bad[:5]} outside "
                 f"[0, {n_blocks})", gname)


# -- whole-source entry points -----------------------------------------------------


def verify_generated_source(module, graphs: Dict[str, object], source: str,
                            consts: Dict[str, object]) -> VerifyResult:
    """AST-check emitted *source* against its lowered *graphs*."""
    result = VerifyResult()
    if not result.check(isinstance(source, str), "source-shape",
                        "stored source is not a string"):
        return result
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.check(False, "source-syntax",
                     f"stored source does not parse: {exc}")
        return result
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    namespace = _NAMESPACE_NAMES | set(consts if isinstance(consts, dict)
                                       else ())
    fn_of_graph = {g: f"_f{i}" for i, g in enumerate(graphs)}
    for i, (gname, lg) in enumerate(graphs.items()):
        fn_name = f"_f{i}"
        fn = defs.get(fn_name)
        if not result.check(fn is not None, "function-table",
                            f"source defines no function {fn_name} for "
                            f"graph {gname!r}", gname):
            continue
        counted = _counted_of(lg)
        _check_definite_assignment(fn, result, gname, namespace)
        _check_counter_init(fn, counted, result, gname)
        _check_counter_writeback(fn, counted, result, gname)
        _check_bounds_guards(fn, result, gname)
        starts = _emitter_starts(lg, fn_of_graph)
        if starts is not None:
            _check_dispatch_targets(fn, len(starts), result, gname)
    return result


def verify_generated_module(module, generated) -> VerifyResult:
    """Verify a live :class:`GeneratedModule` (the ``codegen`` engine).

    The module keeps no source text, so the source is re-emitted from
    its lowered form; emission is deterministic."""
    from repro.analysis.verify_lowered import verify_lowered_module
    from repro.sim.codegen import emit_sources
    result = verify_lowered_module(module, generated.lowered)
    sources, consts = emit_sources(generated.lowered)
    result.merge(verify_generated_source(
        module, generated.lowered.graphs, "\n".join(sources), consts))
    return result


def verify_codegen_payload(module, payload) -> VerifyResult:
    """Static gate for a loaded ``codegen`` cache payload — runs before
    ``from_payload`` compiles or execs anything."""
    from repro.analysis.verify_lowered import verify_lowered_module
    result = VerifyResult()
    if not result.check(isinstance(payload, dict), "payload-shape",
                        "cache payload is not a dict"):
        return result
    ok = True
    for key in ("graphs", "sources", "consts"):
        ok &= result.check(key in payload, "payload-shape",
                           f"cache payload is missing {key!r}")
    if not ok:
        return result
    graphs, sources = payload["graphs"], payload["sources"]
    if not (result.check(isinstance(graphs, dict), "payload-shape",
                         "cache payload graphs is not a dict")
            & result.check(isinstance(sources, tuple)
                           and all(isinstance(text, str)
                                   for text in sources),
                           "source-shape",
                           "stored sources are not a tuple of strings")):
        return result
    result.merge(verify_lowered_module(module, graphs))
    result.merge(verify_generated_source(
        module, graphs, "\n".join(sources), payload["consts"]))
    return result

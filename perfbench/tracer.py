"""Traced ``python -m repro`` invocation, with spans recorded from outside.

    python3 perfbench/tracer.py --out TRACE.json -- study --jobs 1 ...

Runs the repro CLI in this process with every layer's public entry points
wrapped.  Each wrapper patches a ``(module, attribute)`` call site: the
defining module's attribute and every copy a loaded ``repro`` module took
with ``from ... import``.  Nothing in ``src/repro`` is edited, and every
attribute is restored before the trace is written.

A span's self time is its duration minus the time its child spans cover.
Calls are counted per item at the outermost entry only, so an item that
calls itself (or a sibling target of the same item) counts once.

Only this process's spans are reported: pool workers forked from it keep
their own copy of the recorder, which is discarded, and their CPU time is
reported as one total (``exec.worker_cpu_s``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: item name -> the ``module:attribute`` call sites it wraps.  The layer of
#: an item is the part of its name before the first dot.
ITEMS: Dict[str, Tuple[str, ...]] = {
    "frontend": ("repro.frontend:compile_source",),
    "opt.optimize": ("repro.opt.pipeline:optimize_module",),
    "opt.build_graphs": ("repro.cfg.build:build_module_graphs",),
    "opt.classic": ("repro.opt.classic:run_cleanups",
                    "repro.opt.classic:dead_code_elimination"),
    "opt.licm": ("repro.opt.licm:hoist_loop_invariants",),
    "opt.looppipe": ("repro.opt.looppipe:pipeline_loops",),
    "opt.percolation": ("repro.opt.percolation:compact_graph",
                        "repro.opt.percolation:delete_empty_nodes"),
    "chaining.detect": ("repro.chaining.detect:detect_sequences",),
    "sim.run": ("repro.sim.machine:run_module",
                "repro.sim.machine:run_module_batch",
                "repro.sim.machine:run_module_batch_auto"),
    "sim.lower": ("repro.sim.engine:lower_module",),
    "sim.generate": ("repro.sim.codegen:generate_module",),
    "analysis.ranges": ("repro.analysis.ranges:analyze_lowered",),
    "diskcache.load": ("repro.sim.diskcache:DiskCache.load",),
    "diskcache.store": ("repro.sim.diskcache:DiskCache.store",),
    "asip.candidate_pool": ("repro.asip.explore:candidate_pool",),
    "asip.rank": ("repro.asip.explore:rank_candidates",
                  "repro.asip.explore:select_finalists"),
    "asip.frontier_sweep": ("repro.asip.explore:frontier_sweep",),
    "asip.resequence": ("repro.asip.resequence:resequence_module",
                        "repro.asip.resequence:resequence_module_mapped"),
    "asip.select": ("repro.asip.select:select_chains",),
    "asip.evaluate": ("repro.asip.evaluate:evaluate_on_sequential",
                      "repro.asip.evaluate:evaluate_on_sequential_batch"),
    "exec.run_tasks": ("repro.exec.scheduler:run_tasks",),
    "exec.get_pool": ("repro.exec.pool:get_pool",),
    "feedback": ("repro.feedback.study:run_study",
                 "repro.feedback.study:run_exploration_study",
                 "repro.feedback.study:run_frontier_study"),
    "reporting": ("repro.reporting.tables:table2",
                  "repro.reporting.frontier:frontier_report",
                  "repro.feedback.results:summary_to_json",
                  "repro.serve.protocol:exploration_payload",
                  "repro.serve.protocol:frontier_payload"),
}

#: The span that encloses the whole CLI call; its self time is the part of
#: the invocation no wrapped layer accounts for.
ROOT = "cli.main"


class Recorder:
    """In-memory span accounting: calls, self time and outermost total."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._stack: List[list] = []  # [item, start_ns, child_ns]
        self._depth: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def enter(self, item: str) -> bool:
        """Open a span; returns whether it is the item's outermost one."""
        depth = self._depth.get(item, 0)
        self._depth[item] = depth + 1
        if depth == 0:
            self.calls[item] = self.calls.get(item, 0) + 1
        self._stack.append([item, self._clock(), 0])
        return depth == 0

    def exit(self) -> None:
        item, start, child_ns = self._stack.pop()
        duration = self._clock() - start
        self.self_ns[item] = self.self_ns.get(item, 0) + duration - child_ns
        self._depth[item] -= 1
        if self._depth[item] == 0:
            self.total_ns[item] = self.total_ns.get(item, 0) + duration
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {item: {"calls": self.calls.get(item, 0),
                       "self_s": self.self_ns.get(item, 0) / 1e9,
                       "total_s": self.total_ns.get(item, 0) / 1e9}
                for item in sorted(set(self.calls) | set(self.self_ns))}


# -- counts taken from what the layers return ---------------------------------------


def _count_cycles(recorder: Recorder, result) -> None:
    results = result if isinstance(result, list) else [result]
    recorder.add("sim.cycles", sum(r.cycles for r in results))


def _count_moves(recorder: Recorder, result) -> None:
    _graph_module, report = result
    recorder.add("opt.moves", report.total_moves())


RESULT_HOOKS = {"sim.run": _count_cycles, "opt.optimize": _count_moves}


def _wrap(recorder: Recorder, item: str, fn: Callable) -> Callable:
    on_result = RESULT_HOOKS.get(item)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outermost = recorder.enter(item)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if outermost and on_result is not None:
            on_result(recorder, result)
        return result
    return wrapper


def _wrap_run_tasks(recorder: Recorder, item: str, fn: Callable) -> Callable:
    """``run_tasks`` with a :class:`ScheduleStats` supplied when absent."""
    from repro.exec.scheduler import ScheduleStats
    signature = inspect.signature(fn)
    inner = _wrap(recorder, item, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = ScheduleStats()
        result = inner(*bound.args, **bound.kwargs)
        recorder.add("exec.tasks", stats.executed)
        recorder.counts["exec.max_in_flight"] = max(
            recorder.counts.get("exec.max_in_flight", 0),
            stats.max_in_flight)
        return result
    return wrapper


WRAPPER_FACTORIES = {"exec.run_tasks": _wrap_run_tasks}


# -- patching and restoring call sites ----------------------------------------------


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Patches:
    """The wrappers installed for one traced run, and how to undo them."""

    def __init__(self, items: Dict[str, Tuple[str, ...]] = ITEMS):
        self.items = items
        #: id(wrapper) -> (wrapper, original), for every wrapper handed out
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        self._owners: List[object] = []  # modules and classes patched

    def install(self, recorder: Recorder) -> "Patches":
        by_original: Dict[int, Callable] = {}
        for item, targets in self.items.items():
            factory = WRAPPER_FACTORIES.get(item, _wrap)
            for target in targets:
                owner, attr = _resolve(target)
                original = vars(owner)[attr]
                wrapper = factory(recorder, item, original)
                self._wrappers[id(wrapper)] = (wrapper, original)
                by_original[id(original)] = wrapper
                setattr(owner, attr, wrapper)
                self._owners.append(owner)
        # Copies taken with ``from module import name`` are call sites too.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if id(value) in by_original:
                    setattr(module, name, by_original[id(value)])
        return self

    def _wrapped(self) -> List[Tuple[object, str, Callable]]:
        """Every (owner, name, original) whose attribute holds a wrapper,
        including copies modules imported while the run was traced."""
        found = []
        for owner in self._owners + _repro_modules():
            for name, value in list(vars(owner).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    found.append((owner, name, entry[1]))
        return found

    def restore(self) -> None:
        for owner, name, original in self._wrapped():
            setattr(owner, name, original)

    def remaining(self) -> List[str]:
        """Call sites that still hold a wrapper (empty once restored)."""
        return [f"{owner.__name__}:{name}"
                for owner, name, _ in self._wrapped()]


def trace_cli(argv: List[str]) -> Tuple[int, dict]:
    """Run ``repro.cli.main(argv)`` traced; return its exit code and trace."""
    started = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - started

    recorder = Recorder()
    patches = Patches().install(recorder)
    try:
        recorder.enter(ROOT)
        try:
            code = repro.cli.main(argv)
        finally:
            recorder.exit()
    finally:
        patches.restore()
    left = patches.remaining()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")

    # Join the pool so its workers' CPU time lands in RUSAGE_CHILDREN.
    from repro.exec.pool import shutdown_pool
    shutdown_pool(wait=True)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    from repro.sim.diskcache import get_cache
    cache = get_cache()
    return code, {
        "items": recorder.summary(),
        "counts": recorder.counts,
        "cli.import_s": import_s,
        "exec.worker_cpu_s": children.ru_utime + children.ru_stime,
        "diskcache": cache.stats_snapshot() if cache is not None else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: tracer.py --out TRACE.json -- <repro arguments>",
              file=sys.stderr)
        return 2
    out, repro_argv = argv[1], argv[3:]
    code, trace = trace_cli(repro_argv)
    with open(out, "w") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

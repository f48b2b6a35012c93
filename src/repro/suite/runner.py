"""Run the full paper pipeline on one benchmark.

``run_benchmark`` chains every stage of Figure 2 — front end, optimization
at the requested level, simulation/profiling, sequence detection — and can
additionally check semantic preservation against the unoptimized program
(the optimized graph must produce bit-identical outputs).

A run may cover several input seeds at once (``seeds=``): the optimized
graph is compiled to the simulator's generated form once and every
seed's input set is batched through it
(:func:`~repro.sim.machine.run_module_batch`).  The first seed is the
*primary* — its result feeds sequence detection and the reported cycle
count, keeping single-seed behavior unchanged — while every seed is held
in ``seed_results`` and checked by the semantic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cfg.graph import GraphModule
from repro.chaining.detect import (DEFAULT_LENGTHS, DetectionResult,
                                   detect_sequences)
from repro.errors import OptimizationError, ReproError
from repro.ir.module import Module
from repro.opt.pipeline import OptLevel, OptimizationReport, optimize_module
from repro.sim.machine import (DEFAULT_ENGINE, MachineResult, ensure_engine,
                               run_module, run_module_batch)
from repro.suite.registry import BenchmarkSpec

#: ``check_against`` accepts the level-0 result for the primary seed or a
#: sequence of results, one per seed of a multi-seed run.
Reference = Union[MachineResult, Sequence[MachineResult]]


@dataclass
class BenchmarkRun:
    """Everything one benchmark run produced."""

    spec: BenchmarkSpec
    level: OptLevel
    #: The front-end module, or ``None`` for runs built from a
    #: pre-optimized pair only (``run_benchmark(optimized=...)`` with no
    #: ``module=``) — nothing downstream of the optimizer needs it.
    module: Optional[Module]
    graph_module: GraphModule
    opt_report: OptimizationReport
    machine_result: MachineResult
    detection: DetectionResult
    #: Seeds simulated, primary first; ``(seed,)`` for single-seed runs.
    seeds: Tuple[int, ...] = (0,)
    #: One result per entry of ``seeds``; ``seed_results[0]`` is
    #: ``machine_result``.
    seed_results: Tuple[MachineResult, ...] = field(default_factory=tuple)

    @property
    def cycles(self) -> int:
        return self.machine_result.cycles

    @property
    def profile(self):
        return self.machine_result.profile

    def result_for_seed(self, seed: int) -> MachineResult:
        try:
            return self.seed_results[self.seeds.index(seed)]
        except (ValueError, IndexError):
            # IndexError covers runs constructed without seed_results
            # (the field defaults to empty for backward compatibility).
            raise OptimizationError(
                f"{self.spec.name}: run covers seeds {self.seeds}, "
                f"not {seed}")

    def cycles_by_seed(self) -> Dict[int, int]:
        return {seed: result.cycles
                for seed, result in zip(self.seeds, self.seed_results)}

    def output_arrays(self) -> Dict[str, list]:
        return {name: self.machine_result.array(name)
                for name in self.spec.outputs}

    def __repr__(self) -> str:
        return (f"<BenchmarkRun {self.spec.name} @ level "
                f"{int(self.level)}: {self.cycles} cycles>")


def compile_benchmark(spec: BenchmarkSpec) -> Module:
    """Front-end only: compile the benchmark's mini-C source.

    The front end is imported here, not at the top: a run whose
    optimized programs all come from the disk tier never loads it."""
    from repro.frontend import compile_source
    return compile_source(spec.source, spec.name, filename=f"{spec.name}.c")


def validate_seeds(seeds: Optional[Sequence[int]],
                   source: str = "seeds=") -> Optional[Tuple[int, ...]]:
    """Normalize a multi-seed list, rejecting the silently-wrong shapes.

    An *empty* list used to fall back to single-seed behavior without a
    word, and duplicate seeds simulated the same inputs twice while
    reporting them as distinct — both now raise up front, attributed to
    *source* (the knob the value came from), before any compilation or
    worker spawn.
    """
    if seeds is None:
        return None
    seeds = tuple(seeds)
    if not seeds:
        raise ReproError(
            f"{source} is empty: pass at least one input seed, or omit "
            f"it to simulate the single default seed")
    seen: set = set()
    repeated: set = set()
    for s in seeds:
        if s in seen:
            repeated.add(s)
        seen.add(s)
    duplicates = sorted(repeated)
    if duplicates:
        raise ReproError(
            f"{source} contains duplicate seed(s) "
            f"{', '.join(map(str, duplicates))}: each input seed must "
            f"be unique")
    return seeds


def verify_semantics(spec: BenchmarkSpec, level: OptLevel,
                     result: MachineResult,
                     reference: MachineResult) -> None:
    """The semantic-preservation oracle for one (result, reference) pair.

    Declared output arrays are compared first, each by name, so a broken
    optimization is reported against the array the paper's tables would
    actually misstate; the full memory state and return value are then
    compared so *any* divergence — scratch globals included — still
    raises.
    """
    for name in spec.outputs:
        if result.globals_after.get(name) != \
                reference.globals_after.get(name):
            raise OptimizationError(
                f"{spec.name}: level-{int(level)} output array {name!r} "
                f"diverges from the reference run — an optimization "
                f"broke the program")
    if result.globals_after != reference.globals_after \
            or result.return_value != reference.return_value:
        raise OptimizationError(
            f"{spec.name}: level-{int(level)} outputs diverge from the "
            f"reference run — an optimization broke the program")


def run_benchmark(spec: BenchmarkSpec,
                  level: OptLevel = OptLevel.NONE,
                  lengths: Sequence[int] = DEFAULT_LENGTHS,
                  seed: int = 0,
                  unroll_factor: int = 2,
                  check_against: Optional[Reference] = None,
                  module: Optional[Module] = None,
                  engine: str = DEFAULT_ENGINE,
                  seeds: Optional[Sequence[int]] = None,
                  optimized: Optional[Tuple[GraphModule,
                                            OptimizationReport]] = None
                  ) -> BenchmarkRun:
    """Compile, optimize, simulate and analyze one benchmark.

    ``check_against`` (typically the level-0 run's machine result, or its
    per-seed results for a multi-seed run) enables the semantic-
    preservation oracle: differing outputs raise
    :class:`~repro.errors.OptimizationError`.  Pass a pre-compiled
    ``module`` to skip the front end when running several levels, or a
    pre-optimized ``optimized=(graph_module, report)`` pair to skip the
    optimizer too (the study executor optimizes each level itself).
    ``engine`` selects the simulation engine (see
    :func:`~repro.sim.machine.run_module`).  ``seeds`` batches several
    input seeds through one compiled program; it overrides ``seed`` and
    its first entry becomes the primary result.
    """
    level = OptLevel(level)
    ensure_engine(engine)
    seeds = validate_seeds(seeds)
    if optimized is not None:
        # The caller holds the optimized pair already (the study
        # executor's per-benchmark task); compiling the front end here
        # would be pure waste — ``module`` stays ``None`` on the run
        # unless the caller supplied one.
        graph_module, report = optimized
    else:
        if module is None:
            module = compile_benchmark(spec)
        graph_module, report = optimize_module(module, level,
                                               unroll_factor=unroll_factor)
    if seeds:
        seed_list = tuple(seeds)
        results = run_module_batch(
            graph_module, [spec.generate_inputs(s) for s in seed_list],
            engine=engine)
    else:
        seed_list = (seed,)
        results = [run_module(graph_module, spec.generate_inputs(seed),
                              engine=engine)]
    result = results[0]
    if check_against is not None:
        if isinstance(check_against, MachineResult):
            references: Sequence[MachineResult] = (check_against,)
        else:
            references = tuple(check_against)
        if len(references) != len(results):
            raise OptimizationError(
                f"{spec.name}: reference covers {len(references)} runs "
                f"but this run simulated {len(results)} seeds")
        for res, ref in zip(results, references):
            verify_semantics(spec, level, res, ref)
    detection = detect_sequences(graph_module, result.profile, lengths)
    return BenchmarkRun(
        spec=spec,
        level=level,
        module=module,
        graph_module=graph_module,
        opt_report=report,
        machine_result=result,
        detection=detection,
        seeds=seed_list,
        seed_results=tuple(results),
    )

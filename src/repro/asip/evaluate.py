"""Measured evaluation of a chained-instruction ISA.

``evaluate_isa`` runs the whole paper loop for one design point:

1. optimize the program at a chosen level (the "customized optimizing
   compiler" of Figure 1);
2. re-sequentialize the schedule for the single-issue ASIP;
3. simulate **without** chains — the base processor's cycle count;
4. select chains and simulate **with** them — the ASIP's cycle count,
   charging multi-cycle chains their extra issue cycles;
5. verify both runs produce bit-identical outputs (a failed check would
   mean the selector broke the program — it raises, never under-reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.asip.cost import CostModel, DEFAULT_COST_MODEL
from repro.asip.isa import InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import FusedInstruction, SelectionStats, select_chains
from repro.cfg.graph import GraphModule
from repro.errors import AsipError
from repro.ir.module import Module
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import (DEFAULT_ENGINE, MachineResult, run_module,
                               run_module_batch)


@dataclass
class AsipEvaluation:
    """One measured design point."""

    base_cycles: int
    chained_cycles: int
    extension_area: int
    selection: SelectionStats
    # chain pattern -> dynamic issue count
    chain_issues: Dict[Tuple[str, ...], int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.chained_cycles == 0:
            return 0.0
        return self.base_cycles / self.chained_cycles

    @property
    def cycles_saved(self) -> int:
        return self.base_cycles - self.chained_cycles

    def __repr__(self) -> str:
        return (f"<AsipEvaluation {self.base_cycles} -> "
                f"{self.chained_cycles} cycles "
                f"({self.speedup:.3f}x, area {self.extension_area})>")


def _chain_accounting(fused_module: GraphModule,
                      fused_result: MachineResult, cost: CostModel
                      ) -> Tuple[int, Dict[Tuple[str, ...], int]]:
    """(extra issue cycles, per-pattern dynamic issue counts) of one run."""
    extra_cycles = 0
    chain_issues: Dict[Tuple[str, ...], int] = {}
    for fn_name, graph in fused_module.graphs.items():
        counts = fused_result.profile.node_counts.get(fn_name, {})
        for nid, node in graph.nodes.items():
            for ins in node.ops:
                if not isinstance(ins, FusedInstruction):
                    continue
                executed = counts.get(nid, 0)
                pattern = tuple(ins.chain.pattern)
                chain_issues[pattern] = \
                    chain_issues.get(pattern, 0) + executed
                extra = cost.chain_cycles(pattern) - 1
                if extra > 0:
                    extra_cycles += extra * executed
    return extra_cycles, chain_issues


def evaluate_on_sequential(seq_module: GraphModule, isa: InstructionSet,
                           inputs: Optional[dict] = None,
                           cost_model: Optional[CostModel] = None,
                           base_result: Optional[MachineResult] = None,
                           engine: str = DEFAULT_ENGINE) -> AsipEvaluation:
    """Evaluate *isa* against an already re-sequentialized module.

    ``base_result`` may carry a previous simulation of *seq_module* on the
    same inputs; the exploration loop passes it so the unchained base
    processor is simulated once per benchmark instead of once per finalist.
    """
    cost = cost_model or isa.cost_model or DEFAULT_COST_MODEL
    if base_result is None:
        base_result = run_module(seq_module, inputs, engine=engine)

    fused_module = seq_module.copy()
    stats = select_chains(fused_module, isa)
    fused_result = run_module(fused_module, inputs, engine=engine)

    if fused_result.globals_after != base_result.globals_after \
            or fused_result.return_value != base_result.return_value:
        raise AsipError(
            "chained execution diverged from the base processor — "
            "instruction selection broke program semantics")

    extra_cycles, chain_issues = _chain_accounting(fused_module,
                                                   fused_result, cost)
    return AsipEvaluation(
        base_cycles=base_result.cycles,
        chained_cycles=fused_result.cycles + extra_cycles,
        extension_area=isa.extension_area(),
        selection=stats,
        chain_issues=chain_issues,
    )


def evaluate_on_sequential_batch(seq_module: GraphModule,
                                 isa: InstructionSet,
                                 inputs_list: Sequence[Optional[dict]],
                                 cost_model: Optional[CostModel] = None,
                                 base_results: Optional[
                                     Sequence[MachineResult]] = None,
                                 engine: str = DEFAULT_ENGINE
                                 ) -> Tuple[AsipEvaluation, ...]:
    """Evaluate *isa* on several input sets through one chain selection.

    The multi-seed form of :func:`evaluate_on_sequential`: chains are
    selected once (selection is input-independent) and every input set
    is batched through the fused program, so an N-seed finalist pays one
    module copy and one compile instead of N.  Element *i* of the result
    is bit-identical to ``evaluate_on_sequential(seq_module, isa,
    inputs_list[i], ..., base_result=base_results[i])``.
    """
    cost = cost_model or isa.cost_model or DEFAULT_COST_MODEL
    if base_results is None:
        base_results = run_module_batch(seq_module, inputs_list,
                                        engine=engine)
    if len(base_results) != len(inputs_list):
        raise AsipError(
            f"base results cover {len(base_results)} runs but the batch "
            f"has {len(inputs_list)} input sets")
    fused_module = seq_module.copy()
    stats = select_chains(fused_module, isa)
    fused_results = run_module_batch(fused_module, inputs_list,
                                     engine=engine)
    evaluations = []
    for fused_result, base_result in zip(fused_results, base_results):
        if fused_result.globals_after != base_result.globals_after \
                or fused_result.return_value != base_result.return_value:
            raise AsipError(
                "chained execution diverged from the base processor — "
                "instruction selection broke program semantics")
        extra_cycles, chain_issues = _chain_accounting(
            fused_module, fused_result, cost)
        evaluations.append(AsipEvaluation(
            base_cycles=base_result.cycles,
            chained_cycles=fused_result.cycles + extra_cycles,
            extension_area=isa.extension_area(),
            selection=stats,
            chain_issues=chain_issues,
        ))
    return tuple(evaluations)


def merge_evaluations(evaluations: Sequence[AsipEvaluation]
                      ) -> AsipEvaluation:
    """Fold per-seed evaluations of one design point into one.

    Cycle totals and dynamic chain-issue counts sum across seeds (so
    ``speedup`` becomes the whole-workload ratio, weighting every seed
    by its own run length); the selection statistics and extension area
    are structural and identical for every seed, so the first seed's
    are kept.  A single-element merge is the identity.
    """
    if not evaluations:
        raise AsipError("cannot merge zero evaluations")
    if len(evaluations) == 1:
        return evaluations[0]
    chain_issues: Dict[Tuple[str, ...], int] = {}
    for evaluation in evaluations:
        for pattern, count in evaluation.chain_issues.items():
            chain_issues[pattern] = chain_issues.get(pattern, 0) + count
    return AsipEvaluation(
        base_cycles=sum(e.base_cycles for e in evaluations),
        chained_cycles=sum(e.chained_cycles for e in evaluations),
        extension_area=evaluations[0].extension_area,
        selection=evaluations[0].selection,
        chain_issues=chain_issues,
    )


def evaluate_isa(module: Module, isa: InstructionSet,
                 inputs: Optional[dict] = None,
                 level: OptLevel = OptLevel.PIPELINED,
                 unroll_factor: int = 2,
                 cost_model: Optional[CostModel] = None,
                 engine: str = DEFAULT_ENGINE) -> AsipEvaluation:
    """Full-loop evaluation of *isa* on linear *module* at *level*."""
    graph_module, _ = optimize_module(module, level,
                                      unroll_factor=unroll_factor)
    sequential = resequence_module(graph_module)
    return evaluate_on_sequential(sequential, isa, inputs, cost_model,
                                  engine=engine)

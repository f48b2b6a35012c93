"""Measured evaluation of a chained-instruction ISA.

``evaluate_isa`` runs the whole paper loop for one design point:

1. optimize the program at a chosen level (the "customized optimizing
   compiler" of Figure 1);
2. re-sequentialize the schedule for the single-issue ASIP;
3. simulate **without** chains — the base processor's cycle count;
4. select chains — :func:`~repro.asip.select.select_chains` returns a
   fused module built alongside the base one, which it leaves unchanged
   — and simulate **with** them: the ASIP's cycle count, charging
   multi-cycle chains their extra issue cycles;
5. verify both runs produce bit-identical outputs (a failed check would
   mean the selector broke the program — it raises, never under-reports).

Steps 4 and 5 depend on the chain set only through the fused program it
selects.  Chain sets that fuse the same sites (:func:`distinct_programs`
finds them) fuse the same program, so the exploration loops simulate and
check each distinct fused program once and give every chain set of the
group that evaluation with its own extension area.

Across input sets (:func:`evaluate_on_sequential_batch`, the multi-seed
kernel) steps 4 and 5 run on the first input set only.  Selection fuses
only runs whose interior nodes have one predecessor and one successor,
so a fused head executes exactly as often as the base node it replaces
and every other input set's chained cycles and chain issues follow from
its own base node counts: ``chained = base − Σ (len − 1)·count(head) +
Σ extra·count(head)``.  The first input set is derived as well and must
equal its simulation, so every multi-seed batch checks the derivation
against a simulated, output-checked run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asip.cost import CostModel, DEFAULT_COST_MODEL
from repro.asip.isa import InstructionSet
from repro.asip.resequence import resequence_module
from repro.asip.select import (ChainMatcher, FusedInstruction,
                               SelectionStats, Site, build_fused,
                               select_chains, selection_stats, site_key)
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


#: One fused instruction of a fused module: (function, head node,
#: pattern, nodes it replaces beyond the head, extra issue cycles).
_Head = Tuple[str, int, Tuple[str, ...], int, int]


def _fused_heads(fused_module: GraphModule, cost: CostModel
                 ) -> List[_Head]:
    """Every fused instruction of *fused_module*, in graph-walk order."""
    heads = []
    for fn_name, graph in fused_module.graphs.items():
        for nid, node in graph.nodes.items():
            for ins in node.ops:
                if isinstance(ins, FusedInstruction):
                    pattern = tuple(ins.chain.pattern)
                    heads.append((fn_name, nid, pattern, len(ins.parts) - 1,
                                  cost.chain_cycles(pattern) - 1))
    return heads


def _chain_accounting(heads: Sequence[_Head], result: MachineResult
                      ) -> Tuple[int, int, Dict[Tuple[str, ...], int]]:
    """(cycles the fused nodes save, extra issue cycles, per-pattern
    dynamic issue counts) of one run.

    *result* is a run of the fused program or of the base program it
    was fused from: a fused head keeps its node id and executes exactly
    as often as the base node it replaces.
    """
    saved = extra_cycles = 0
    chain_issues: Dict[Tuple[str, ...], int] = {}
    node_counts = result.profile.node_counts
    for fn_name, nid, pattern, removed, extra in heads:
        executed = node_counts.get(fn_name, {}).get(nid, 0)
        chain_issues[pattern] = chain_issues.get(pattern, 0) + executed
        saved += removed * executed
        if extra > 0:
            extra_cycles += extra * executed
    return saved, extra_cycles, chain_issues


def _check_outputs(fused_result: MachineResult,
                   base_result: MachineResult) -> None:
    if fused_result.globals_after != base_result.globals_after \
            or fused_result.return_value != base_result.return_value:
        raise AsipError(
            "chained execution diverged from the base processor — "
            "instruction selection broke program semantics")


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

    fused_module, stats = select_chains(seq_module, isa)
    fused_result = run_module(fused_module, inputs, engine=engine)
    _check_outputs(fused_result, base_result)

    _saved, extra_cycles, chain_issues = _chain_accounting(
        _fused_heads(fused_module, cost), fused_result)
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
                                 engine: str = DEFAULT_ENGINE,
                                 sites: Optional[Sequence[Site]] = None
                                 ) -> Tuple[AsipEvaluation, ...]:
    """Evaluate *isa* on several input sets through one chain selection.

    The multi-seed form of :func:`evaluate_on_sequential`: chains are
    selected once (selection is input-independent), or taken from
    *sites* — ``ChainMatcher(seq_module).match(isa)`` — when the caller
    has matched them already.  The fused program is simulated and
    output-checked on the first input set only; every other input set's
    evaluation is derived from its base result (see the module
    docstring).  With more than one input set the first is derived too,
    and a derivation that differs in any way from its simulation raises
    :class:`AsipError`.  Element *i* of the result equals
    ``evaluate_on_sequential(seq_module, isa, inputs_list[i], ...,
    base_result=base_results[i])``; only the first element's outputs
    are checked here.
    """
    cost = cost_model or isa.cost_model or DEFAULT_COST_MODEL
    if base_results is None:
        base_results = run_module_batch(seq_module, inputs_list,
                                        engine=engine)
    if len(base_results) != len(inputs_list):
        raise AsipError(
            f"base results cover {len(base_results)} runs but the batch "
            f"has {len(inputs_list)} input sets")
    if sites is None:
        fused_module, stats = select_chains(seq_module, isa)
    else:
        fused_module, stats = build_fused(seq_module, sites), \
            selection_stats(sites)
    fused_result, = run_module_batch(fused_module, inputs_list[:1],
                                     engine=engine)
    _check_outputs(fused_result, base_results[0])
    heads = _fused_heads(fused_module, cost)
    area = isa.extension_area()
    _saved, extra_cycles, chain_issues = _chain_accounting(heads,
                                                           fused_result)
    simulated = AsipEvaluation(
        base_cycles=base_results[0].cycles,
        chained_cycles=fused_result.cycles + extra_cycles,
        extension_area=area, selection=stats, chain_issues=chain_issues)
    if len(inputs_list) == 1:
        return (simulated,)

    derived = []
    for base_result in base_results:
        base_cycles = base_result.cycles
        saved, extra_cycles, chain_issues = _chain_accounting(heads,
                                                              base_result)
        derived.append(AsipEvaluation(
            base_cycles=base_cycles,
            chained_cycles=base_cycles - saved + extra_cycles,
            extension_area=area, selection=stats,
            chain_issues=chain_issues))
    if (derived[0].chained_cycles, list(derived[0].chain_issues.items())) \
            != (simulated.chained_cycles,
                list(simulated.chain_issues.items())):
        raise AsipError(
            f"derived evaluation {derived[0]!r} of the first input set "
            f"disagrees with its simulation {simulated!r} — the base "
            f"profile does not describe the fused program")
    return (simulated,) + tuple(derived[1:])


def match_programs(seq_module: GraphModule,
                   isas: Sequence[InstructionSet]
                   ) -> Tuple[List[int], List[Tuple[Site, ...]]]:
    """``(firsts, sites)``: :func:`distinct_programs` of *isas*, and
    each ISA's matched sites on *seq_module* (what
    :func:`evaluate_on_sequential_batch` fuses)."""
    matcher = ChainMatcher(seq_module)
    first: Dict[Tuple, int] = {}
    firsts, sites = [], []
    for i, isa in enumerate(isas):
        matched = matcher.match(isa)
        firsts.append(first.setdefault(site_key(matched), i))
        sites.append(matched)
    return firsts, sites


def distinct_programs(seq_module: GraphModule,
                      isas: Sequence[InstructionSet]) -> List[int]:
    """For each ISA of *isas*, the index of the first one that fuses
    *seq_module* into the same program — its own index if none before it
    does.  Equal indices share one fused program, hence one simulation
    and one output check on any inputs."""
    return match_programs(seq_module, isas)[0]


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

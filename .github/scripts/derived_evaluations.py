"""CI gate: derived multi-seed evaluations equal full simulation.

Multi-seed exploration simulates each distinct fused program on the
primary seed only and derives every other seed's evaluation from that
seed's base profile (``repro.asip.evaluate.evaluate_on_sequential_batch``).
This script runs the benchmark harness's ``explore-seeds`` configuration
at workload seed 100 (its 6-benchmark subset, budgets 1000/2500/5000,
seeds 100-107) through the exploration kernel, then simulates every
distinct fused program on every seed against a simulated base, with the
fused-vs-base output check, and exits non-zero on any difference from
the kernel's evaluations.

    PYTHONPATH=src python .github/scripts/derived_evaluations.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS  # noqa: E402

from repro.asip.evaluate import evaluate_on_sequential  # noqa: E402
from repro.asip.select import select_chains  # noqa: E402
from repro.cli import _normalize_argv, build_parser  # noqa: E402
from repro.exec.explore import (_budgets_to_measure,  # noqa: E402
                                _explore_base, _measure_pattern_sets)
from repro.feedback.study import ExplorationStudyConfig  # noqa: E402
from repro.sim.diskcache import module_digest  # noqa: E402
from repro.sim.machine import run_module_batch  # noqa: E402
from repro.suite.registry import selected_names  # noqa: E402

WORKLOAD_SEED = 100


def main() -> int:
    args = build_parser().parse_args(_normalize_argv(
        WORKLOADS["explore-seeds"].argv(WORKLOAD_SEED)))
    config = ExplorationStudyConfig(
        benchmarks=args.benchmarks, budgets=args.budgets,
        level=args.level, seeds=args.seeds)
    budgets = tuple(dict.fromkeys(config.budgets))
    compared = mismatches = 0
    for name in selected_names(config.benchmarks):
        pool, _ops, sequential, inputs_list, derived_bases = _explore_base(
            name, config.level, config.lengths, config.seeds,
            config.unroll_factor, config.engine)
        _finalists, pattern_sets = _budgets_to_measure(
            budgets, config.max_candidates, config.measure_top, pool)
        measured = _measure_pattern_sets(sequential, pattern_sets,
                                         inputs_list, derived_bases,
                                         config.engine)
        bases = run_module_batch(sequential, inputs_list,
                                 engine=config.engine)
        simulated = {}  # fused program digest -> per-seed evaluations
        for isa, evaluations in measured:
            digest = module_digest(select_chains(sequential, isa)[0])
            if digest not in simulated:
                simulated[digest] = [
                    evaluate_on_sequential(sequential, isa, inputs,
                                           base_result=base,
                                           engine=config.engine)
                    for inputs, base in zip(inputs_list, bases)]
            for seed, got, want in zip(config.seeds, evaluations,
                                       simulated[digest]):
                want = replace(want, extension_area=isa.extension_area())
                compared += 1
                if got != want or list(got.chain_issues.items()) \
                        != list(want.chain_issues.items()):
                    mismatches += 1
                    print(f"MISMATCH {name} seed {seed} "
                          f"{sorted(isa.patterns())}: kernel {got!r}, "
                          f"simulated {want!r}")
        print(f"{name}: {len(pattern_sets)} chain sets, {len(simulated)} "
              f"programs x {len(config.seeds)} seeds simulated")
    print(f"{compared} design x seed evaluations compared, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())

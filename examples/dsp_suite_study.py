#!/usr/bin/env python
"""Reproduce the paper's experiments on the DSP benchmark suite.

Runs the full Figure-2 pipeline over Table 1's twelve benchmarks at the
three optimization levels, then prints every table and figure of the
evaluation section.

Run:  python examples/dsp_suite_study.py            # fast subset
      python examples/dsp_suite_study.py --full     # all 12 benchmarks
"""

import sys
import time

from repro.feedback.ilp import characterize_ilp, render_ilp_table
from repro.feedback.study import StudyConfig, run_study
from repro.reporting.figures import figure3, figure4, figure5, figure6
from repro.reporting.tables import table1, table2, table3

FAST_SUBSET = ("fir", "iir", "sewha", "dft", "bspline", "feowf")


def main(argv):
    full = "--full" in argv
    config = StudyConfig(benchmarks=None if full else FAST_SUBSET)

    print(table1())
    print()

    started = time.time()
    suite = "all 12 benchmarks" if full else \
        f"subset {', '.join(FAST_SUBSET)}"
    print(f"Running the study on {suite} at levels 0/1/2 "
          f"(each level verified against level 0)...")
    study = run_study(config,
                      progress=lambda name, stage:
                      print(f"  {name} @ {stage}"))
    print(f"done in {time.time() - started:.1f}s\n")

    for artifact in (table2(study),
                     figure3(study),
                     figure4(study),
                     figure5(study),
                     figure6(study)):
        print(artifact)
        print()

    coverage_benches = [b for b in ("sewha", "feowf", "bspline", "edge",
                                    "iir") if b in study.benchmarks]
    print(table3(study, benchmarks=coverage_benches))
    print()

    print(render_ilp_table(characterize_ilp(study)))


if __name__ == "__main__":
    main(sys.argv[1:])

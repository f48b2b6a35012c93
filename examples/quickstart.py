#!/usr/bin/env python
"""Quickstart: analyze one kernel for chainable operation sequences.

Compiles a small mini-C MAC kernel, runs the paper's pipeline (profile ->
optimize -> detect) at the three optimization levels, and prints the
sequences a designer would consider implementing as chained instructions.

Run:  python examples/quickstart.py
"""

import random

from repro.chaining.detect import detect_sequences
from repro.chaining.sequence import sequence_label
from repro.frontend import compile_source
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim.machine import run_module

KERNEL = """
/* A toy DSP kernel: dot product with a guard. */
int x[64];
int h[64];
int out[1];
int n = 64;

int main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < n; i++) {
        if (x[i] != 0) {
            acc = acc + x[i] * h[i];
        }
    }
    out[0] = acc;
    return acc;
}
"""


def main():
    rng = random.Random(42)
    inputs = {
        "x": [rng.randint(-100, 100) for _ in range(64)],
        "h": [rng.randint(-8, 8) for _ in range(64)],
    }

    # Step 1 (paper fig. 2): the front end produces 3-address code.
    module = compile_source(KERNEL, "quickstart")
    print(f"compiled: {module.total_instructions()} three-address "
          f"instructions\n")

    reference = None
    for level in (OptLevel.NONE, OptLevel.PIPELINED, OptLevel.RENAMED):
        # Steps 2+3: optimize and profile on the sample data.  The
        # default engine exec-compiles the graph; the reference
        # interpreter is its oracle and must agree to the cycle.
        graph_module, _report = optimize_module(module, level)
        result = run_module(graph_module, inputs)
        oracle = run_module(graph_module, inputs, engine="reference")
        assert result.cycles == oracle.cycles
        assert result.profile == oracle.profile

        # The optimizer must never change program results.
        if reference is None:
            reference = result.return_value
        assert result.return_value == reference

        # Step 4: detect chainable sequences, weighted by profile.
        detection = detect_sequences(graph_module, result.profile,
                                     lengths=(2, 3))
        print(f"=== {level.label}  ({result.cycles} cycles)")
        for name, freq in detection.top(2, limit=5):
            print(f"    {sequence_label(name):24s} {freq:6.2f}%")
        print()

    print("Reading the output: multiply-add is the classic MAC; the "
          "sequences that appear only\nat the 'Pipelined' level are the "
          "ones compiler feedback uncovers for the designer.")


if __name__ == "__main__":
    main()

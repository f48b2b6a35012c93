"""Speed probe: samples how fast one CPU runs Python while a workload runs.

    python3 perfbench/probe.py --cpu 0

The probe pins itself to ``--cpu``, prints ``ready`` and then, until its
standard input closes, repeatedly times a small fixed loop (integer
arithmetic and a small dict, about a millisecond) and sleeps between
rounds, using a few percent of the CPU.  It then prints the round
durations as one JSON list.

On a shared host the round time rises and falls with the speed of a repro
invocation on the same CPU, so ``run.py`` scales invocation times by it.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time
from typing import List

STEPS = 3000
PAUSE_S = 0.03


def round_s() -> float:
    started = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(STEPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += (i * 7) ^ (acc >> 3)
    return time.perf_counter() - started


def sample_until_eof() -> List[float]:
    rounds = []
    while True:
        rounds.append(round_s())
        readable, _, _ = select.select([sys.stdin], [], [], PAUSE_S)
        if readable and not sys.stdin.buffer.read1(4096):
            return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    round_s()
    print("ready", flush=True)
    print(json.dumps(sample_until_eof()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

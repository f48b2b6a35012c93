"""Regenerate ``digests.json``, the pinned output digests of each workload.

    python3 perfbench/pin_digests.py --seeds 0,100
    python3 perfbench/pin_digests.py --seeds 0 --check-engine codegen

Run from the root of a checkout.  The first form runs one invocation per
workload and seed and writes the digests; review the diff before
committing it, since a changed digest means changed outputs.  The second
form rewrites nothing: it runs every workload on another engine and
checks that the outputs match the pinned digests bit for bit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def digest_of(name: str, seed: int, engine: str = "") -> str:
    runner = run.Runner(name, seed, time.monotonic() + run.RUN_DEADLINE_S,
                        extra=["--engine", engine] if engine else [])
    runner.expected = None
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    inv = runner.prime()
    if inv.error:
        raise SystemExit(f"{name} seed {seed}: {inv.error}")
    return inv.digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0,100")
    parser.add_argument("--check-engine", default="")
    args = parser.parse_args()
    seeds = [int(part) for part in args.seeds.split(",")]
    path = run.HERE / "digests.json"
    pinned = json.loads(path.read_text())
    mismatches = 0
    for name in run.WORKLOADS:
        for seed in seeds:
            digest = digest_of(name, seed, args.check_engine)
            if args.check_engine:
                expected = pinned.get(name, {}).get(str(seed))
                ok = digest == expected
                mismatches += not ok
                print(f"{name:14s} seed {seed:4d} {args.check_engine}: "
                      f"{'matches' if ok else 'DIFFERS from'} pinned digest")
            else:
                pinned.setdefault(name, {})[str(seed)] = digest
                print(f"{name:14s} seed {seed:4d} {digest}")
    if not args.check_engine:
        path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

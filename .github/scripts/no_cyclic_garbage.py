"""CI gate: a warm frontier leaves no cyclic garbage of repro's own types.

Every compiled program holds its lowering and generated code in the
module's ``_compiled`` slot, and nothing in that slot points back at the
module, so a finalist the exploration drops is freed by reference
counting at once.  A back-reference would make each dropped program a
reference cycle that only the cycle collector can free.

This script primes a disk cache with the benchmark harness's seed-0
``frontier`` configuration (``explore-study --frontier`` on its
6-benchmark subset) in a subprocess, then runs the same configuration
warm in this process with ``gc.DEBUG_SAVEALL`` set, so everything the
collector finds unreachable is kept in ``gc.garbage`` instead of freed.
It exits non-zero, naming each type and its count, if ``gc.garbage``
holds any object whose type is defined under ``repro``.

    PYTHONPATH=src python .github/scripts/no_cyclic_garbage.py
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import SCRUBBED, WORKLOADS, scrubbed_env  # noqa: E402

SEED = 0


def repro_garbage() -> Counter:
    """Counts of the objects in ``gc.garbage`` by qualified type name,
    for the types defined under ``repro``."""
    counts: Counter = Counter()
    for obj in gc.garbage:
        cls = type(obj)
        if cls.__module__.split(".")[0] == "repro":
            counts[f"{cls.__module__}.{cls.__qualname__}"] += 1
    return counts


def main() -> int:
    argv = WORKLOADS["frontier"].argv(SEED)
    with tempfile.TemporaryDirectory(prefix="repro-gc-") as tmp:
        env = scrubbed_env(dict(os.environ))
        env["REPRO_CACHE"] = tmp
        subprocess.run([sys.executable, "-m", "repro", *argv], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        for knob in SCRUBBED:
            os.environ.pop(knob, None)
        os.environ["REPRO_CACHE"] = tmp
        from repro.cli import main as repro_main

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            status = repro_main(argv, out=io.StringIO())
            gc.collect()
        finally:
            gc.set_debug(0)
    if status != 0:
        print(f"warm frontier run exited {status}")
        return 1
    counts = repro_garbage()
    print(f"warm seed-0 frontier: {len(gc.garbage)} objects of cyclic "
          f"garbage, {sum(counts.values())} of repro types")
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {count:6d}  {name}")
    return 1 if counts else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI gate: study and exploration outputs do not depend on the worker count.

The benchmark harness pins seed 0's output digest of the ``study`` and
``frontier`` workloads (run at ``--jobs 1``) and of the ``explore-seeds``
workload (run at ``--jobs 2``).  This script runs each of those exact
configurations with the other worker count -- ``study`` and ``frontier``
at ``--jobs 2``, ``explore-seeds`` at ``--jobs 1`` -- as ``python -m repro
... --json``, twice on one disk cache per configuration (cold, then warm,
so the second run loads what the first stored), hashes each JSON with
the harness's own ``output_digest`` and exits non-zero unless all six
match the pinned digests in ``perfbench/digests.json``.

    python3 .github/scripts/jobs_invariance.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, output_digest, scrubbed_env  # noqa: E402

#: workload -> the worker count it is re-run at (the other one).
SWAPPED_JOBS = {"study": "2", "explore-seeds": "1", "frontier": "2"}
SEED = 0


def main() -> int:
    pinned = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    failed = False
    with tempfile.TemporaryDirectory(prefix="repro-jobs-") as tmp:
        env = scrubbed_env(dict(os.environ))
        for name, jobs in SWAPPED_JOBS.items():
            env["REPRO_CACHE"] = str(Path(tmp) / f"cache-{name}")
            argv = WORKLOADS[name].argv(SEED)
            argv[argv.index("--jobs") + 1] = jobs
            for cache in ("cold", "warm"):
                out = Path(tmp) / f"{name}-{cache}.json"
                subprocess.run([sys.executable, "-m", "repro", *argv,
                                "--json", str(out)],
                               cwd=ROOT, env=env, check=True,
                               stdout=subprocess.DEVNULL)
                digest = output_digest(json.loads(out.read_text()))
                want = pinned[name][str(SEED)]
                ok = digest == want
                failed |= not ok
                print(f"{name} --jobs {jobs} ({cache} cache): {digest} "
                      f"{'matches' if ok else 'DIFFERS from'} pinned {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

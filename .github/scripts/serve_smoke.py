"""CI smoke test for the `repro serve` daemon.

Starts `python -m repro serve` as a real subprocess, issues two
identical explore requests plus one study request over the socket,
then four requests with out-of-range knobs that must be refused by name
before any dispatch (the last two through the study-family config
validator), asserts the dedup/result-tier counters, and checks
a clean shutdown (exit code 0, socket unlinked).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile


def main() -> int:
    tmpdir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    socket_path = os.path.join(tmpdir, "repro.sock")
    env = dict(os.environ)
    env.setdefault("REPRO_CACHE", os.path.join(tmpdir, "cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path],
        env=env,
    )
    try:
        from repro.serve.client import wait_for_server

        explore = {"op": "explore", "benchmark": "sewha", "budget": 2500}
        with wait_for_server(socket_path=socket_path, timeout=120) as client:
            first = client.request(explore)
            assert first["ok"], first.get("error")
            assert first["meta"]["result_cache"] == "miss", first["meta"]
            second = client.request(explore)
            assert second["ok"], second.get("error")
            assert second["meta"]["result_cache"] == "hit", second["meta"]
            assert first["result"] == second["result"]

            study = client.request(
                {"op": "study", "benchmarks": ["sewha"], "levels": [0, 1]}
            )
            assert study["ok"], study.get("error")
            assert study["meta"]["result_cache"] == "miss", study["meta"]

            # 2**42 - 1 finalist subsets, a one-operation chain, a zero
            # sweep ceiling and an optimization level that does not exist
            for bad, knob in (
                    ({"op": "explore", "benchmark": "pse",
                      "budget": 1_000_000_000, "max_candidates": 42},
                     "max_candidates"),
                    ({"op": "study", "benchmarks": ["sewha"],
                      "lengths": [1]}, "lengths"),
                    ({"op": "frontier", "benchmarks": ["sewha"],
                      "max_budget": 0}, "FrontierStudyConfig.max_budget"),
                    ({"op": "explore-study", "benchmarks": ["sewha"],
                      "level": 7}, "ExplorationStudyConfig.level")):
                refused = client.request(bad)
                assert not refused["ok"], refused
                assert knob in refused["error"], refused

            status = client.request({"op": "status"})
            assert status["ok"], status.get("error")
            payload = status["result"]
            stats = payload["stats"]
            print(json.dumps(stats, indent=2, sort_keys=True))
            assert stats["errors"] == 4, stats
            assert stats["dispatches"] == 3, stats
            assert stats["result_hits"] == 1, stats
            assert stats["result_misses"] == 2, stats
            assert stats["evaluations"] == 2, stats
            assert payload["result_cache_enabled"] is True, payload

            stopping = client.request({"op": "shutdown"})
            assert stopping["ok"], stopping.get("error")
            assert stopping["result"] == {"stopping": True}, stopping

        code = proc.wait(timeout=60)
        assert code == 0, f"serve exited with {code}"
        assert not os.path.exists(socket_path), "socket not unlinked"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

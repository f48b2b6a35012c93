"""Serve-daemon benchmarks: result-tier hits vs fresh evaluations.

The point of ``repro serve`` is that a repeated question costs a socket
round-trip plus one disk read instead of a full evaluation.  Three legs
pin that down:

* **the warm hit** — a primed ``explore-study`` request answered from
  the whole-result tier (zero scheduler tasks, zero simulator
  invocations); this is the headline latency of the service;
* **the fresh evaluation** — an ``analyze`` request with a new seed
  every round, so each one misses the tier and runs the whole
  compile/simulate/detect pipeline inside the daemon.  The ratio to
  the hit leg is what the result tier buys;
* **the status round-trip** — protocol + event-loop floor with no
  evaluation at all.

Run with ``--benchmark-json=bench_serve.json`` (as CI does); the
headline numbers are recorded in ``benchmarks/results/bench_serve.json``.
"""

import pytest

from repro.serve import ReproServer, wait_for_server
from repro.sim import diskcache

EXPLORE_REQ = {"op": "explore-study", "benchmarks": ["sewha"],
               "budgets": [2500], "jobs": 1}

ANALYZE_SRC = ("int a[8]; int b[8]; void main() { int i; "
               "for (i = 0; i < 8; i = i + 1) "
               "{ b[i] = a[i] * 3 + 1; } }")


@pytest.fixture()
def serve(tmp_path, monkeypatch):
    """A live daemon on a private socket with a private result tier."""
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path / "cache"))
    monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "1")
    diskcache.reset_cache_state()
    srv = ReproServer(socket_path=str(tmp_path / "serve.sock"), jobs=1)
    thread = srv.run_in_thread()
    client = wait_for_server(socket_path=srv.socket_path)
    yield client
    try:
        client.request({"op": "shutdown"})
    finally:
        client.close()
    thread.join(30)
    assert not thread.is_alive()
    diskcache.reset_cache_state()


def test_result_tier_hit(benchmark, serve):
    """A primed explore-study request: socket round-trip + disk read."""
    prime = serve.request(EXPLORE_REQ)
    assert prime["ok"], prime.get("error")
    assert prime["meta"]["result_cache"] == "miss"
    response = benchmark.pedantic(serve.request, args=(EXPLORE_REQ,),
                                  rounds=5, iterations=1, warmup_rounds=1)
    assert response["ok"]
    assert response["meta"]["result_cache"] == "hit"
    assert response["result"] == prime["result"]


def test_analyze_fresh_evaluation(benchmark, serve):
    """A new seed every round: each request misses the tier and runs
    the full compile/simulate/detect pipeline in the daemon."""
    seeds = iter(range(10_000))

    def fresh():
        request = {"op": "analyze", "source": ANALYZE_SRC,
                   "seed": next(seeds)}
        response = serve.request(request)
        assert response["ok"], response.get("error")
        assert response["meta"]["result_cache"] == "miss"
        return response

    response = benchmark.pedantic(fresh, rounds=5, iterations=1,
                                  warmup_rounds=1)
    assert response["result"]["coverage"]["steps"]


def test_status_roundtrip(benchmark, serve):
    """Protocol + event-loop floor: no evaluation, no disk."""
    response = benchmark.pedantic(
        serve.request, args=({"op": "status"},),
        rounds=5, iterations=1, warmup_rounds=1)
    assert response["ok"]
    assert response["result"]["stats"]["errors"] == 0

"""Repro-as-a-service: dedup, the whole-result tier, malformed requests.

The daemon's contract, pinned here:

* N concurrent identical requests run **one** evaluation and every
  client receives bit-identical response bytes;
* a repeated request is served from the whole-result disk tier without
  touching the executors (and survives a daemon restart);
* a served ``explore-study`` answer is the same document a direct
  ``run_exploration_study`` call (tier off) produces;
* malformed and oversized requests are answered with ``ok: false`` and
  the daemon stays up;
* coalesced riders are answered even when the owning evaluation is
  cancelled.

Each test gets a private cache directory and its own daemon on a Unix
socket under ``tmp_path``.
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.errors import ReproError
from repro.feedback import study as study_api
from repro.serve import ReproServer, ServeClient, wait_for_server
from repro.serve import protocol
from repro.serve.daemon import MAX_REQUEST_LINE
from repro.sim import diskcache

EXPLORE_REQ = {"op": "explore-study", "benchmarks": ["sewha"],
               "budgets": [2500], "jobs": 1}
EXPLORE_LINE = json.dumps(EXPLORE_REQ).encode()

ANALYZE_SRC = ("int a[8]; int b[8]; void main() { int i; "
               "for (i = 0; i < 8; i = i + 1) "
               "{ b[i] = a[i] * 3 + 1; } }")


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture()
def serve_env(tmp_path, monkeypatch):
    monkeypatch.setenv(diskcache.CACHE_ENV_VAR, str(tmp_path / "cache"))
    monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "1")
    diskcache.reset_cache_state()
    yield tmp_path
    diskcache.reset_cache_state()


@pytest.fixture()
def server(serve_env):
    srv = ReproServer(socket_path=str(serve_env / "serve.sock"), jobs=1)
    thread = srv.run_in_thread()
    yield srv
    if thread.is_alive():
        with ServeClient(socket_path=srv.socket_path) as client:
            client.request({"op": "shutdown"})
        thread.join(30)
    assert not thread.is_alive()


def connect(srv) -> ServeClient:
    return wait_for_server(socket_path=srv.socket_path)


class TestDedup:
    def test_concurrent_identical_requests_evaluate_once(
            self, server, monkeypatch):
        real = study_api.run_exploration_study
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def gated(config, progress=None, stats=None):
            calls.append(config)
            entered.set()
            assert release.wait(60)
            return real(config, progress=progress, stats=stats)

        monkeypatch.setattr(study_api, "run_exploration_study", gated)
        raws = [None] * 4

        def post(i):
            with connect(server) as client:
                raws[i] = client.request_raw(EXPLORE_REQ)

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        assert entered.wait(30)
        # every other request coalesces onto the in-flight evaluation
        assert wait_until(
            lambda: server.stats.dedup_coalesced == 3)
        release.set()
        for t in threads:
            t.join(120)
        assert len(calls) == 1  # exactly one evaluation
        assert all(isinstance(raw, bytes) for raw in raws)
        assert len({raw for raw in raws}) == 1  # bit-identical bytes
        assert server.stats.dispatches == 1
        assert server.stats.result_misses == 1
        assert server.stats.result_hits == 0

    def test_served_answer_matches_direct_call(self, server,
                                               monkeypatch):
        with connect(server) as client:
            response = client.request(EXPLORE_REQ)
        assert response["ok"]
        # The same question answered directly by the library (tier off,
        # so it really evaluates) yields the same document.
        monkeypatch.setenv(diskcache.RESULT_ENV_VAR, "0")
        config = protocol.build_config(
            protocol.canonical_request(EXPLORE_REQ))
        direct = protocol.exploration_payload(
            study_api.run_exploration_study(config))
        assert response["result"] == json.loads(json.dumps(direct))


class TestResultTier:
    def test_repeat_served_from_disk_without_executors(
            self, server, monkeypatch):
        with connect(server) as client:
            first = client.request(EXPLORE_REQ)
            assert first["ok"]
            assert first["meta"]["result_cache"] == "miss"

            # From here on, any executor dispatch is an error: the
            # repeat must be answered entirely from the disk tier.
            import repro.exec.explore as explore_mod

            def boom(*_a, **_k):
                raise AssertionError(
                    "result-tier hit must not reach the executors")

            monkeypatch.setattr(explore_mod,
                                "execute_exploration_study", boom)
            second = client.request(EXPLORE_REQ)
        assert second["ok"]
        assert second["meta"]["result_cache"] == "hit"
        assert second["result"] == first["result"]
        assert server.stats.result_hits == 1

    def test_restart_serves_from_disk(self, serve_env, monkeypatch):
        sock_a = str(serve_env / "a.sock")
        srv_a = ReproServer(socket_path=sock_a, jobs=1)
        thread_a = srv_a.run_in_thread()
        with wait_for_server(socket_path=sock_a) as client:
            first = client.request(EXPLORE_REQ)
            assert first["ok"]
            client.request({"op": "shutdown"})
        thread_a.join(60)

        # A fresh daemon process-equivalent: new server, new cache
        # handle, executors booby-trapped — only the disk tier answers.
        diskcache.reset_cache_state()
        import repro.exec.explore as explore_mod

        def boom(*_a, **_k):
            raise AssertionError("restart repeat must not evaluate")

        monkeypatch.setattr(explore_mod, "execute_exploration_study",
                            boom)
        sock_b = str(serve_env / "b.sock")
        srv_b = ReproServer(socket_path=sock_b, jobs=1)
        thread_b = srv_b.run_in_thread()
        with wait_for_server(socket_path=sock_b) as client:
            second = client.request(EXPLORE_REQ)
            client.request({"op": "shutdown"})
        thread_b.join(60)
        assert second["ok"]
        assert second["meta"]["result_cache"] == "hit"
        assert second["result"] == first["result"]


class TestSimpleOps:
    def test_analyze_round_trip_and_repeat_hit(self, server):
        request = {"op": "analyze", "source": ANALYZE_SRC}
        with connect(server) as client:
            first = client.request(request)
            second = client.request(request)
        assert first["ok"]
        assert first["result"]["cycles"] > 0
        assert first["result"]["total_ops"] > 0
        assert first["meta"]["result_cache"] == "miss"
        assert second["meta"]["result_cache"] == "hit"
        assert second["result"] == first["result"]

    def test_explore_round_trip(self, server):
        request = {"op": "explore", "benchmark": "sewha"}
        with connect(server) as client:
            response = client.request(request)
        assert response["ok"]
        result = response["result"]
        assert result["candidates"]
        assert result["best"] is None or result["best"]["speedup"] > 0

    def test_explore_takes_the_optimized_tier(self, server, monkeypatch):
        """A second explore of the same benchmark (another budget, so no
        whole-result hit) loads its optimized program from disk."""
        import repro.asip.explore as explore_mod
        import repro.exec.study as study_mod
        with connect(server) as client:
            assert client.request({"op": "explore", "benchmark": "sewha",
                                   "budget": 2500})["ok"]

            def refuse(*_args, **_kwargs):
                raise AssertionError(
                    "a warm explore must skip compiling and optimizing")
            if not diskcache.verify_on_load():
                monkeypatch.setattr(study_mod, "compile_benchmark", refuse)
                monkeypatch.setattr(study_mod, "optimize_module", refuse)
                monkeypatch.setattr(explore_mod, "optimize_module", refuse)
            response = client.request({"op": "explore", "benchmark": "sewha",
                                       "budget": 1500})
        assert response["ok"], response
        assert response["meta"]["result_cache"] == "miss"
        assert diskcache.get_cache().hits[diskcache.OPTIMIZED_KIND] == 1


class TestValidationAndStatus:
    def test_bad_requests_answered_daemon_stays_up(self, server):
        bad = [
            "not json at all",
            json.dumps(["a", "list"]),
            json.dumps({"op": "warp"}),
            json.dumps({"op": "explore-study", "bogus": 1}),
            json.dumps({"op": "explore-study", "budgets": []}),
            json.dumps({"op": "study", "seeds": [0, 0]}),
            json.dumps({"op": "study", "engine": "turbo"}),
            json.dumps({"op": "explore-study",
                        "benchmarks": ["no-such-benchmark"]}),
            json.dumps({"op": "analyze", "source": "   "}),
            json.dumps({"op": "explore", "benchmark": "sewha",
                        "budget": -5}),
        ]
        with connect(server) as client:
            for line in bad:
                raw = client.request_raw(
                    json.loads(line) if line.startswith(("{", "["))
                    else {"op": line})
                response = json.loads(raw.decode())
                assert response["ok"] is False
                assert response["error"]
            status = client.request({"op": "status"})
        assert status["ok"]
        assert status["result"]["stats"]["errors"] == len(bad)
        assert status["result"]["stats"]["evaluations"] == 0

    def test_oversized_line_answered_daemon_stays_up(self, server):
        padding = "/* " + "x" * (70 * 1024) + " */ "
        request = {"op": "analyze", "source": padding + ANALYZE_SRC}
        assert len(json.dumps(request)) > MAX_REQUEST_LINE
        with connect(server) as client:
            response = client.request(request)
            assert response == {
                "ok": False,
                "error": f"request line exceeds {MAX_REQUEST_LINE} bytes"}
            # the rest of the long line was skipped, not parsed
            assert client.request({"op": "status"})["ok"]
        with connect(server) as client:
            status = client.request({"op": "status"})
        assert status["ok"]
        stats = status["result"]["stats"]
        assert stats["errors"] == 1
        assert stats["requests"] == 3
        assert stats["dispatches"] == 0

    @pytest.mark.parametrize("request_, knob", [
        ({"op": "study", "benchmarks": ["sewha"], "lengths": [1]},
         "lengths"),
        ({"op": "study", "benchmarks": ["sewha"], "unroll_factor": 0},
         "unroll_factor"),
        ({"op": "explore-study", "benchmarks": ["sewha"],
          "max_candidates": -2}, "max_candidates"),
        ({"op": "frontier", "benchmarks": ["sewha"], "measure_top": -1},
         "measure_top"),
        ({"op": "explore", "benchmark": "sewha", "max_candidates": 17},
         "max_candidates"),
        ({"op": "explore", "benchmark": "sewha", "measure_top": -1},
         "measure_top"),
        ({"op": "explore", "benchmark": "sewha", "unroll_factor": 0},
         "unroll_factor"),
        ({"op": "analyze", "source": ANALYZE_SRC, "lengths": [1]},
         "lengths"),
    ])
    def test_out_of_range_knob_refused_before_dispatch(self, server,
                                                       request_, knob):
        with connect(server) as client:
            before = client.request({"op": "status"})
            response = client.request(request_)
            after = client.request({"op": "status"})
        assert response["ok"] is False
        assert knob in response["error"]
        assert after["result"]["stats"]["dispatches"] == \
            before["result"]["stats"]["dispatches"]

    def test_field_errors_name_the_field(self, server):
        with connect(server) as client:
            response = client.request({"op": "study", "seed": "zero"})
            assert "'seed'" in response["error"]
            response = client.request({"op": "explore"})
            assert "'benchmark'" in response["error"]

    def test_status_shape(self, server):
        with connect(server) as client:
            status = client.request({"op": "status"})["result"]
        assert status["result_cache_enabled"] is True
        assert "cache_max_bytes" not in status
        assert status["inflight"] == 0
        assert status["uptime_seconds"] >= 0
        assert set(status["pool"]) == {"alive", "workers"}
        stats = status["stats"]
        for field in ("requests", "errors", "dispatches",
                      "dedup_coalesced", "evaluations", "result_hits",
                      "result_misses", "evaluation_seconds",
                      "tasks_executed", "max_tasks_in_flight"):
            assert stats[field] >= 0
        assert "pinned" not in status["cache"]

    def test_shutdown_is_clean(self, serve_env):
        sock = str(serve_env / "down.sock")
        srv = ReproServer(socket_path=sock, jobs=1)
        thread = srv.run_in_thread()
        with wait_for_server(socket_path=sock) as client:
            response = client.request({"op": "shutdown"})
        assert response["ok"] and response["result"]["stopping"]
        thread.join(30)
        assert not thread.is_alive()
        assert not os.path.exists(sock)  # socket file unlinked


class TestInflightResolution:
    """The shared in-flight future resolves on every exit path."""

    @staticmethod
    def scenario(serve_env, monkeypatch, body):
        srv = ReproServer(socket_path=str(serve_env / "unused.sock"),
                          jobs=1)

        async def main():
            srv._loop = asyncio.get_running_loop()
            entered = asyncio.Event()
            release = asyncio.Event()

            async def gated(request, digest):
                entered.set()
                await release.wait()
                return b"answer"

            monkeypatch.setattr(srv, "_evaluate_request", gated)
            owner = asyncio.ensure_future(srv._respond(EXPLORE_LINE))
            await entered.wait()
            return await body(srv, owner, release)

        try:
            return srv, asyncio.run(main())
        finally:
            srv._executor.shutdown()

    @staticmethod
    async def ride(srv):
        rider = asyncio.ensure_future(srv._respond(EXPLORE_LINE))
        await asyncio.sleep(0)
        return rider

    def test_rider_answered_when_owner_cancelled(self, serve_env,
                                                 monkeypatch):
        async def body(srv, owner, release):
            rider = await self.ride(srv)
            assert srv.stats.dedup_coalesced == 1
            owner.cancel()
            with pytest.raises(asyncio.CancelledError):
                await owner
            return await asyncio.wait_for(rider, 10)

        srv, blob = self.scenario(serve_env, monkeypatch, body)
        response = json.loads(blob)
        assert response["ok"] is False
        assert response["error"] == "evaluation cancelled"
        assert srv._inflight == {}
        assert srv.stats.errors == 1

    def test_cancelled_rider_leaves_shared_answer_intact(
            self, serve_env, monkeypatch):
        async def body(srv, owner, release):
            quitter = await self.ride(srv)
            stayer = await self.ride(srv)
            quitter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await quitter
            release.set()
            return await asyncio.wait_for(
                asyncio.gather(owner, stayer), 10)

        srv, blobs = self.scenario(serve_env, monkeypatch, body)
        assert blobs == [b"answer", b"answer"]
        assert srv.stats.dedup_coalesced == 2
        assert srv.stats.errors == 0


class TestProtocol:
    def test_digest_ignores_spelled_out_defaults_and_order(self):
        a = protocol.canonical_request(dict(EXPLORE_REQ))
        b = protocol.canonical_request(
            {"budgets": [2500], "op": "explore-study", "jobs": 1,
             "benchmarks": ["sewha"], "seed": 0, "level": 1})
        assert protocol.request_digest(a) == protocol.request_digest(b)
        c = protocol.canonical_request(
            dict(EXPLORE_REQ, seed=1))
        assert protocol.request_digest(a) != protocol.request_digest(c)

    @pytest.mark.parametrize("op, config_type, canonical, digest", [
        ("study", study_api.StudyConfig,
         {"op": "study", "benchmarks": None, "engine": "codegen",
          "jobs": None, "lengths": [2, 3, 4, 5], "levels": [0, 1, 2],
          "seed": 0, "seeds": None, "unroll_factor": 2, "verify": True},
         "6ac2d19e9fb7785e7cd7b919b32f8f52"
         "389da158ab0bd8ce193eb992b46dffd2"),
        ("explore-study", study_api.ExplorationStudyConfig,
         {"op": "explore-study", "benchmarks": None, "budgets": [2500],
          "engine": "codegen", "jobs": None, "lengths": [2, 3],
          "level": 1, "max_candidates": 8, "measure_top": 4, "seed": 0,
          "seeds": None, "unroll_factor": 2},
         "830d9c5b2504158b90dabb60940350bf"
         "7673134d2cfc250c19c790512f163810"),
        ("frontier", study_api.FrontierStudyConfig,
         {"op": "frontier", "benchmarks": None, "engine": "codegen",
          "jobs": None, "lengths": [2, 3], "level": 1, "max_budget": None,
          "max_candidates": 8, "measure_top": 4, "seed": 0,
          "seeds": None, "unroll_factor": 2},
         "7f5efc60235bc231620035a5412ab1ad"
         "087632e26cfaaccb56dcea5e664b0088"),
    ])
    def test_empty_study_request_means_the_default_config(
            self, op, config_type, canonical, digest):
        request = protocol.canonical_request({"op": op})
        assert request == canonical
        assert protocol.request_digest(request) == digest
        assert protocol.build_config(request) == config_type()

    def test_explore_request_digest_is_pinned(self):
        assert protocol.request_digest(
            protocol.canonical_request(EXPLORE_REQ)) == (
            "9ad4a0d3daf49791c350eed74865c66b"
            "f59158346d500ce89f0063a0c010be81")

    def test_explore_request_rejects_jobs(self):
        # a single-benchmark exploration runs in the evaluating process:
        # it has no worker count to set
        with pytest.raises(ReproError, match="unknown field.*jobs"):
            protocol.canonical_request(
                {"op": "explore", "benchmark": "sewha", "jobs": 1})

    def test_jobs_changes_digest_but_not_result_key(self):
        # jobs=N is bit-identical by contract, so the *result* key
        # ignores it — but dedup keys on the full request.
        base = protocol.build_config(
            protocol.canonical_request(dict(EXPLORE_REQ)))
        other = protocol.build_config(
            protocol.canonical_request(dict(EXPLORE_REQ, jobs=2)))
        assert study_api.result_request_key("explore-study", base) == \
            study_api.result_request_key("explore-study", other)

    def test_server_requires_an_endpoint(self):
        with pytest.raises(ReproError, match="socket path or a TCP"):
            ReproServer()

    def test_tcp_port_zero_binds_ephemeral(self, serve_env):
        srv = ReproServer(port=0, jobs=1)
        thread = srv.run_in_thread()
        assert srv.bound_port
        with ServeClient(port=srv.bound_port) as client:
            assert client.request({"op": "status"})["ok"]
            client.request({"op": "shutdown"})
        thread.join(30)
        assert not thread.is_alive()

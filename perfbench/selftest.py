"""Self-tests of the benchmark harness (not of repro itself).

    python3 perfbench/selftest.py

Run from the root of a checkout.  They cover the harness's own logic:
call-site patching and its undo, self-time arithmetic, output-digest
normalization, the environment scrub, the speed probe and its scaling,
and the agreement between
``BENCHMARK.json``, ``metric_map.json`` and what ``run.py`` reports.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        rec = tracer.Recorder(clock)

        def at(t, action, item=None):
            clock.now = t
            rec.enter(item) if action == "in" else rec.exit()

        at(0, "in", "outer")
        at(2, "in", "a")
        at(5, "out")
        at(6, "in", "b")
        at(7, "in", "c")
        at(8, "out")
        at(9, "out")
        at(10, "out")
        self.assertEqual(rec.self_ns, {"outer": 4, "a": 3, "b": 2, "c": 1})
        self.assertEqual(rec.total_ns["outer"], 10)
        self.assertEqual(sum(rec.self_ns.values()), 10)

    def test_reentry_counts_once_and_splits_self_time(self):
        clock = FakeClock()
        rec = tracer.Recorder(clock)
        for t, item in ((0, "x"), (1, "x"), (3, None), (4, "y"), (6, None),
                        (7, None)):
            clock.now = t
            rec.enter(item) if item else rec.exit()
        self.assertEqual(rec.calls, {"x": 1, "y": 1})
        self.assertEqual(rec.self_ns, {"x": 5, "y": 2})
        self.assertEqual(rec.total_ns, {"x": 7, "y": 2})


class TestPatching(unittest.TestCase):
    def originals(self):
        found = {}
        for targets in tracer.ITEMS.values():
            for target in targets:
                owner, attr = tracer._resolve(target)
                found[target] = vars(owner)[attr]
        return found

    def test_wrapped_attributes_are_restored(self):
        import repro.exec.study
        import repro.opt.pipeline
        before = self.originals()
        copy_before = repro.exec.study.optimize_module
        with tempfile.TemporaryDirectory() as tmp:
            rec = tracer.Recorder()
            patches = tracer.Patches().install(rec)
            try:
                self.assertIsNot(repro.opt.pipeline.optimize_module,
                                 before["repro.opt.pipeline:optimize_module"])
                # A copy taken with ``from ... import`` is patched too.
                self.assertIs(repro.exec.study.optimize_module,
                              repro.opt.pipeline.optimize_module)
                import repro.cli
                code = repro.cli.main(
                    ["study", "--benchmarks", "sewha", "--levels", "0,1",
                     "--cache-dir", tmp], out=io.StringIO())
            finally:
                patches.restore()
        self.assertEqual(code, 0)
        self.assertEqual(patches.remaining(), [])
        self.assertEqual(self.originals(), before)
        self.assertIs(repro.exec.study.optimize_module, copy_before)
        self.assertEqual(rec.calls["frontend"], 1)
        self.assertEqual(rec.calls["opt.optimize"], 2)
        self.assertGreater(rec.counts["opt.moves"], 0)
        self.assertGreater(rec.counts["sim.cycles"], 0)

    def test_trace_cli_restores_and_reports(self):
        with tempfile.TemporaryDirectory() as tmp:
            with redirect_stdout(io.StringIO()):
                code, trace = tracer.trace_cli(
                    ["explore-study", "--benchmarks", "sewha",
                     "--budgets", "2500", "--jobs", "1", "--cache-dir", tmp])
        self.assertEqual(code, 0)
        self.assertEqual(trace["items"]["cli.main"]["calls"], 1)
        self.assertEqual(trace["counts"]["exec.tasks"], 2)
        self.assertEqual(trace["counts"]["exec.max_in_flight"], 1)
        metrics = run.layer_metrics(trace)
        self.assertGreater(metrics["asip.evaluate.calls"], 0)
        self.assertGreater(metrics["sim.mcycles_per_s"], 0)


class TestDigest(unittest.TestCase):
    DOC = {"config": {"seed": 3, "engine": "compiled", "jobs": 2},
           "cells": [{"engine": "x", "cycles": 10}]}

    def variant(self, **config):
        return dict(self.DOC, config=dict(self.DOC["config"], **config))

    def test_engine_and_jobs_are_ignored(self):
        base = run.output_digest(self.DOC)
        self.assertEqual(run.output_digest(self.variant(engine="codegen")),
                         base)
        self.assertEqual(run.output_digest(self.variant(jobs=1)), base)
        config = {"seed": 3}
        self.assertEqual(run.output_digest(dict(self.DOC, config=config)),
                         base)

    def test_everything_else_counts(self):
        base = run.output_digest(self.DOC)
        self.assertNotEqual(run.output_digest(self.variant(seed=4)), base)
        cells = [{"engine": "y", "cycles": 10}]
        self.assertNotEqual(run.output_digest(dict(self.DOC, cells=cells)),
                            base)
        cells = [{"engine": "x", "cycles": 11}]
        self.assertNotEqual(run.output_digest(dict(self.DOC, cells=cells)),
                            base)

    def test_input_is_not_modified(self):
        doc = json.loads(json.dumps(self.DOC))
        run.output_digest(doc)
        self.assertEqual(doc, self.DOC)


class TestEnvironment(unittest.TestCase):
    def test_scrub(self):
        ambient = {name: "1" for name in run.SCRUBBED}
        ambient.update(HOME="/home/u", PATH="/bin", PYTHONPATH="/elsewhere")
        env = run.scrubbed_env(ambient)
        for name in run.SCRUBBED:
            self.assertNotIn(name, env)
        self.assertEqual(env["HOME"], "/home/u")
        self.assertEqual(env["PATH"], "/bin")
        self.assertEqual(env["PYTHONPATH"], str(run.ROOT / "src"))

    def test_issue_knobs_are_all_scrubbed(self):
        self.assertEqual(set(run.SCRUBBED), {
            "REPRO_ENGINE", "REPRO_JOBS", "REPRO_RANGES", "REPRO_VERIFY",
            "REPRO_RESULT_CACHE", "REPRO_CACHE_MAX_MB", "REPRO_CACHE"})

    def test_private_cache_root_inside_checkout(self):
        for name in run.WORKLOADS:
            runner = run.Runner(name, 0, deadline=0.0)
            self.assertTrue(runner.cache.is_relative_to(run.ROOT))
            argv = run.WORKLOADS[name].argv(0)
            self.assertNotIn("--engine", argv)


class TestSpeedProbe(unittest.TestCase):
    def test_trimmed_mean_drops_both_ends(self):
        rounds = [1.0] * 8 + [0.1, 50.0]
        self.assertEqual(run.probe_round_s(rounds), 1.0)

    def test_reference_speed_leaves_times_alone(self):
        inv = run.Invocation(2.0, 1.5, 10.0, None, None, run.REF_PROBE_S)
        self.assertEqual((inv.ref_wall_s, inv.ref_cpu_s), (2.0, 1.5))
        slow = run.Invocation(2.0, 1.5, 10.0, None, None,
                              2 * run.REF_PROBE_S)
        self.assertLess(slow.ref_wall_s, 2.0)

    def test_cpus_rotate_and_cover_jobs(self):
        runner = run.Runner("study", 0, deadline=0.0)
        runner.cpus = [0, 1, 2]
        seen = []
        for _ in range(3):
            seen.append(runner.next_cpus())
            runner.invocations.append(None)
        self.assertEqual(seen, [[0], [1], [2]])
        runner = run.Runner("explore-seeds", 0, deadline=0.0)
        runner.cpus = [0, 1, 2]
        runner.invocations = [None] * 2
        self.assertEqual(runner.next_cpus(), [0, 2])

    def test_probe_process_samples_and_stops(self):
        cpu = min(run.os.sched_getaffinity(0))
        probes = run.Probes([cpu])
        run.time.sleep(0.2)
        probe_s = probes.stop()
        self.assertGreater(probe_s, 0.0)
        self.assertEqual(probes.procs, [])


class TestSpec(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.map = json.loads((HERE / "metric_map.json").read_text())

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_metric_map_covers_per_layer(self):
        for m in self.spec["per_layer"]:
            groups = [group for group in self.map
                      if m["name"].startswith(tuple(group["prefixes"]))]
            self.assertEqual(len(groups), 1, m["name"])
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        for group in self.map:
            self.assertLessEqual(set(group["moves"]), e2e, group)
            self.assertLessEqual(set(group["on"]) | set(group["not_on"]),
                                 set(run.WORKLOADS), group)

    def test_every_per_layer_metric_is_produced(self):
        trace = {"items": {"cli.main": {"calls": 1, "self_s": 1.0,
                                        "total_s": 1.0}},
                 "counts": {}, "cli.import_s": 0.1,
                 "exec.worker_cpu_s": 0.0, "diskcache": None}
        produced = set(run.layer_metrics(trace)) | {"trace.overhead_ratio"}
        items = set(tracer.ITEMS)
        for m in self.spec["per_layer"]:
            name = m["name"]
            item = name.rsplit(".", 1)[0]
            self.assertTrue(name in produced or item in items, name)


if __name__ == "__main__":
    unittest.main()

"""The repo benchmark: one workload, run as fresh ``python -m repro`` processes.

    python3 perfbench/run.py --workload study --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Workloads (single client, closed loop,
one invocation at a time; every invocation uses the default engine, and the
workload seed is the input-data seed):

* ``study`` -- ``repro study``: all 12 benchmarks x levels 0/1/2, ``--jobs
  1``, a fresh empty disk cache per invocation.
* ``frontier`` -- ``repro explore-study --frontier`` at level 1, ``--jobs
  1``, over a benchmark subset, on a cache filled by a priming invocation.
* ``explore-seeds`` -- ``repro explore-study --budgets 1000,2500,5000`` on
  8 consecutive seeds, ``--jobs 2``, same subset, on a filled cache.

With ``--trace 0`` the run repeats, for ``--seconds`` seconds, a priming
invocation on an empty cache followed by two timed invocations, and reports
the medians of ``setup_s`` (priming wall time), ``ref_wall_s``,
``ref_cpu_s`` (whole process tree) and ``peak_rss_mb`` (largest process of
the tree).  With ``--trace 1`` it primes once, then alternates untraced and
traced invocations (see ``tracer.py``) and reports the per-layer metrics.

Times are reported at a reference machine speed.  A shared host runs the
same invocation up to twice as slow when a neighbour is busy, for seconds
to minutes at a time, so raw seconds do not repeat.  Each invocation runs
pinned to the CPUs its ``--jobs`` needs, with a speed probe (``probe.py``)
sampling each of those CPUs alongside it; its times are multiplied by
``(REF_PROBE_S / mean probe round time) ** SENSITIVITY``.  Raw times are
printed too.

Every invocation's ``--json`` output is hashed with ``config.engine`` and
``config.jobs`` dropped, and checked against ``digests.json`` where the
seed is pinned there and against the run's other invocations always.  A
failure is a non-zero exit or a digest mismatch.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Benchmarks of the warm workloads: a float filter, two images and three
#: integer streams, ~3.5 s per frontier invocation on 2 cores.  The whole
#: suite (24 s; compress alone is 11 s) would not fit the run budget.
SUBSET = "iir,smooth,sewha,feowf,flatten,dft"

#: Environment knobs that would change what an invocation measures.
SCRUBBED = ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_RANGES", "REPRO_VERIFY",
            "REPRO_RESULT_CACHE", "REPRO_CACHE_MAX_MB", "REPRO_CACHE")

#: Untraced, each priming invocation is followed by this many timed ones.
TIMED_PER_PRIME = 2
MIN_SETUPS, MIN_TIMED = 2, 4
#: Probe round time on an idle core of an Intel Xeon 2-vCPU VM: times are
#: reported as if run at that speed.
REF_PROBE_S = 0.0009
#: Log-log slope of invocation CPU time over mean probe round time on a
#: shared 2-vCPU host: 0.82 on ``study``, 0.89 on ``frontier`` (25 and 27
#: invocations); it leaves 3-4% of scatter where raw times scatter 20-25%.
SENSITIVITY = 0.85
#: Share of probe rounds dropped at each end before averaging: rounds
#: that a context switch stretched, and the fastest few.
PROBE_TRIM = 0.1
#: Kill an invocation still running this many seconds after the run began
#: (or ``--seconds`` plus ``RUN_GRACE_S``, if that is later).
RUN_DEADLINE_S = 170.0
RUN_GRACE_S = 130.0


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], List[str]]  # repro arguments for a workload seed
    warm: bool  # primed cache reused by the timed invocations
    jobs: int = 1  # CPUs an invocation is pinned to


WORKLOADS: Dict[str, Workload] = {
    "study": Workload(
        lambda seed: ["study", "--jobs", "1", "--seed", str(seed)],
        warm=False),
    "frontier": Workload(
        lambda seed: ["explore-study", "--frontier", "--benchmarks", SUBSET,
                      "--jobs", "1", "--seed", str(seed)],
        warm=True),
    "explore-seeds": Workload(
        lambda seed: ["explore-study", "--benchmarks", SUBSET,
                      "--budgets", "1000,2500,5000", "--seeds",
                      ",".join(str(seed + i) for i in range(8)),
                      "--jobs", "2"],
        warm=True, jobs=2),
}


def scrubbed_env(environ: Dict[str, str]) -> Dict[str, str]:
    """The child environment: repro knobs removed, ``src`` importable."""
    env = {key: value for key, value in environ.items()
           if key not in SCRUBBED}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def output_digest(payload: dict) -> str:
    """SHA-256 of a ``--json`` document minus ``config.engine``/``jobs``."""
    payload = dict(payload)
    if isinstance(payload.get("config"), dict):
        payload["config"] = {key: value
                             for key, value in payload["config"].items()
                             if key not in ("engine", "jobs")}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str]
    digest: Optional[str]
    probe_s: float = REF_PROBE_S  # mean probe round time while it ran
    trace: Optional[dict] = None

    @property
    def speed(self) -> float:
        """Reference speed over the speed this invocation ran at."""
        return (REF_PROBE_S / self.probe_s) ** SENSITIVITY

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def probe_round_s(rounds: List[float]) -> float:
    """Trimmed mean of probe round times: the time integral of the CPU's
    speed over the invocation, which a median would not follow."""
    rounds = sorted(rounds)
    cut = int(len(rounds) * PROBE_TRIM)
    return statistics.fmean(rounds[cut:len(rounds) - cut])


class Probes:
    """One ``probe.py`` process per CPU, sampling until :meth:`stop`."""

    def __init__(self, cpus: Sequence[int]):
        self.procs = []
        try:
            for cpu in cpus:
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "probe.py"), "--cpu",
                     str(cpu)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True)
                self.procs.append(proc)
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed probe on CPU {cpu} failed")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> Optional[float]:
        """Stop every probe; the mean over CPUs of their round times."""
        per_cpu = []
        for proc in self.procs:
            try:
                out, _ = proc.communicate(timeout=30)
                per_cpu.append(probe_round_s(json.loads(out)))
            except (subprocess.TimeoutExpired, ValueError,
                    statistics.StatisticsError):
                proc.kill()
                proc.wait()
        self.procs = []
        return statistics.fmean(per_cpu) if per_cpu else None


class Runner:
    """Launches invocations of one workload and checks their outputs."""

    def __init__(self, name: str, seed: int, deadline: float,
                 extra: Sequence[str] = ()):
        self.name = name
        self.seed = seed
        self.deadline = deadline
        self.workload = WORKLOADS[name]
        self.extra = list(extra)
        self.work = WORK / name
        self.cache = self.work / "cache"
        self.env = scrubbed_env(os.environ)
        self.invocations: List[Invocation] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        pinned = json.loads((HERE / "digests.json").read_text())
        self.expected = pinned.get(name, {}).get(str(seed))

    def reset_cache(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    def invoke(self, traced: bool = False) -> Invocation:
        count = len(self.invocations)
        out_json = self.work / f"out{count}.json"
        trace_json = self.work / f"trace{count}.json"
        argv = self.workload.argv(self.seed) + [
            "--cache-dir", str(self.cache), "--json", str(out_json),
            *self.extra]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   "--out", str(trace_json), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        inv = self._launch(cmd, self.work / f"log{count}.txt")
        if inv.error is None:
            try:
                inv.digest = output_digest(json.loads(out_json.read_text()))
                if traced:
                    inv.trace = json.loads(trace_json.read_text())
            except (OSError, ValueError) as exc:
                inv.error = f"unreadable output: {exc}"
        if inv.error is None and self.expected and inv.digest != self.expected:
            inv.error = f"digest {inv.digest[:12]} != pinned {self.expected[:12]}"
        first = next((i.digest for i in self.invocations if i.digest), None)
        if inv.error is None and first and inv.digest != first:
            inv.error = f"digest {inv.digest[:12]} != run's first {first[:12]}"
        self.invocations.append(inv)
        return inv

    def next_cpus(self) -> List[int]:
        """The CPUs of the next invocation, rotating over the allowed ones."""
        count = min(self.workload.jobs, len(self.cpus))
        first = len(self.invocations) % len(self.cpus)
        rotated = self.cpus[first:] + self.cpus[:first]
        return sorted(rotated[:count])

    def _launch(self, cmd: List[str], log: Path) -> Invocation:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Invocation(0.0, 0.0, 0.0, "run deadline passed", None)
        cpus = self.next_cpus()
        probes = Probes(cpus)
        try:
            with open(log, "wb") as fh:
                started = time.perf_counter()
                proc = subprocess.Popen(
                    cmd, cwd=ROOT, env=self.env, stdout=fh,
                    stderr=subprocess.STDOUT, start_new_session=True,
                    preexec_fn=lambda: os.sched_setaffinity(0, cpus))
                killer = threading.Timer(
                    timeout, os.killpg, (proc.pid, signal.SIGKILL))
                killer.start()
                try:
                    # wait4 reports the child together with the descendants
                    # it reaped (pool workers): CPU summed, max RSS over the
                    # tree.
                    _pid, status, usage = os.wait4(proc.pid, 0)
                finally:
                    killer.cancel()
                wall = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            probe_s = probes.stop()
        error = None
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            error = f"exit {proc.returncode}: {' '.join(tail)}"
        elif probe_s is None:
            error = "speed probe returned no samples"
        return Invocation(wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, error, None,
                          probe_s or REF_PROBE_S)

    def prime(self) -> Invocation:
        self.reset_cache()
        return self.invoke()

    def timed(self, traced: bool = False) -> Invocation:
        if not self.workload.warm:
            self.reset_cache()
        return self.invoke(traced)


def default_engine(env: Dict[str, str]) -> str:
    probe = subprocess.run(
        [sys.executable, "-c",
         "from repro.sim.machine import DEFAULT_ENGINE; print(DEFAULT_ENGINE)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    return probe.stdout.strip() or "unknown"


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


# -- per-layer metrics --------------------------------------------------------------


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Every per-layer value one traced invocation yields, by metric name.

    An item that never ran has no ``.calls``/``.self_s`` entry; it reads 0.
    """
    items, counts = trace["items"], trace["counts"]
    metrics: Dict[str, float] = {}
    for item, row in items.items():
        metrics[f"{item}.calls"] = row["calls"]
        metrics[f"{item}.self_s"] = row["self_s"]
    for name in ("sim.cycles", "opt.moves", "exec.tasks",
                 "exec.max_in_flight"):
        metrics[name] = counts.get(name, 0)
    sim_s = metrics.get("sim.run.self_s", 0.0)
    metrics["sim.mcycles_per_s"] = (metrics["sim.cycles"] / sim_s / 1e6
                                    if sim_s else 0.0)
    metrics["exec.run_tasks.wall_s"] = \
        items.get("exec.run_tasks", {}).get("total_s", 0.0)
    metrics["exec.pool_start_s"] = \
        items.get("exec.get_pool", {}).get("total_s", 0.0)
    metrics["exec.worker_cpu_s"] = trace["exec.worker_cpu_s"]
    metrics["cli.import_s"] = trace["cli.import_s"]
    kinds = (trace.get("diskcache") or {}).get("kinds", {}).values()
    hits = sum(k["hits"] for k in kinds)
    lookups = hits + sum(k["misses"] for k in kinds)
    metrics["diskcache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["diskcache.bytes_read"] = sum(k["bytes_read"] for k in kinds)
    metrics["diskcache.bytes_written"] = sum(k["bytes_written"]
                                             for k in kinds)
    return metrics


#: Counts of work done that must repeat exactly between traced invocations.
EXACT = ("sim.cycles", "opt.moves", "asip.evaluate.calls", "exec.tasks")


def layer_table(trace: dict) -> str:
    """Markdown summary (one row per layer) plus per-item details."""
    items = trace["items"]
    total = items["cli.main"]["total_s"] or 1.0
    layers: Dict[str, List[str]] = {}
    for item in items:
        layers.setdefault(item.split(".")[0], []).append(item)
    rows = []
    for layer, names in layers.items():
        self_s = sum(items[n]["self_s"] for n in names)
        top = max(names, key=lambda n: items[n]["self_s"])
        rows.append((self_s, f"| {layer:10s} | "
                     f"{sum(items[n]['calls'] for n in names):7d} | "
                     f"{self_s:8.3f} | {100 * self_s / total:6.1f}% | "
                     f"{top} ({items[top]['self_s']:.3f} s) |"))
    lines = ["## Layer summary", "",
             "| layer      |   calls |   self s |   share | top item |",
             "|:-----------|--------:|---------:|--------:|:---------|"]
    lines += [row for _s, row in sorted(rows, reverse=True)]
    lines += ["", "## Item details", "",
              "| item                  |   calls |   self s |   share |",
              "|:----------------------|--------:|---------:|--------:|"]
    for item in sorted(items, key=lambda n: -items[n]["self_s"]):
        row = items[item]
        lines.append(f"| {item:21s} | {row['calls']:7d} | "
                     f"{row['self_s']:8.3f} | "
                     f"{100 * row['self_s'] / total:6.1f}% |")
    return "\n".join(lines)


# -- one run ------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(runner: Runner, seconds: float, trace: bool):
    """Run invocations for *seconds*.  Untraced, a warm workload cycles
    through a priming invocation on an emptied cache and
    ``TIMED_PER_PRIME`` timed ones, which keeps set-up and timed samples in
    the same time span; a cold workload's invocations each start on an
    emptied cache, so each is its own set-up and none is run twice.
    Traced, the run primes once and then alternates untraced and traced
    timed invocations.  Once it has its minimum of samples, it starts no
    invocation that the last one's length says would end past *seconds*."""
    setups: List[Invocation] = []
    timed: List[Invocation] = []
    traced: List[Invocation] = []
    warm = runner.workload.warm
    if trace:
        plan = itertools.chain(["prime"], itertools.cycle(["timed", "traced"]))
    elif warm:
        plan = itertools.cycle(["prime"] + ["timed"] * TIMED_PER_PRIME)
    else:
        plan = itertools.cycle(["timed"])
        setups = timed
    started = time.perf_counter()
    step_s = 0.0
    for step in plan:
        enough = traced if trace else (len(setups) >= MIN_SETUPS
                                       and len(timed) >= MIN_TIMED)
        if enough and time.perf_counter() - started + step_s > seconds:
            break
        step_started = time.perf_counter()
        if step == "prime":
            setups.append(runner.prime())
        else:
            (traced if step == "traced" else timed).append(
                runner.timed(traced=step == "traced"))
        if runner.invocations[-1].error:
            break
        step_s = time.perf_counter() - step_started
    return setups, timed, traced


def per_layer(spec: dict, timed: List[Invocation],
              traced: List[Invocation]) -> tuple:
    """Per-layer metrics of the traced invocations, and any count that
    failed to repeat exactly."""
    per_run = [layer_metrics(inv.trace) for inv in traced if inv.trace]
    metrics = {}
    mismatched = []
    for m in spec["per_layer"]:
        key = m["name"]
        if key == "trace.overhead_ratio":
            value = (statistics.median(i.ref_wall_s for i in traced)
                     / statistics.median(i.ref_wall_s for i in timed))
        else:
            values = [run_metrics.get(key, 0) for run_metrics in per_run]
            if key in EXACT and len(set(values)) > 1:
                mismatched.append(f"{key} differs between invocations "
                                  f"{values}")
            value = statistics.median(values) if values else 0.0
        metrics[key] = {"value": value, "unit": m["unit"]}
    if not per_run:
        mismatched.append("no trace was written")
    return metrics, mismatched


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    runner = Runner(name, seed, time.monotonic()
                    + max(RUN_DEADLINE_S, seconds + RUN_GRACE_S))
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir(parents=True)
    # Byte-compile up front so no invocation pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "repro")], cwd=ROOT, env=runner.env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    record = {"workload": name, "seed": seed, "trace": trace,
              "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "engine": default_engine(runner.env)}
    print(f"workload {name}  seed {seed}  python {record['python']}  "
          f"nproc {record['nproc']}  engine {record['engine']}  outputs "
          f"{'pinned' if runner.expected else 'self-checked'}")

    setups, timed, traced = measure(runner, seconds, trace)
    failures = [inv.error for inv in runner.invocations if inv.error]
    ok_timed = [inv for inv in timed if not inv.error] or timed
    samples = {"ref_wall_s": [i.ref_wall_s for i in ok_timed],
               "ref_cpu_s": [i.ref_cpu_s for i in ok_timed],
               "peak_rss_mb": [i.peak_rss_mb for i in ok_timed],
               "setup_s": [i.ref_wall_s for i in setups]}
    raw = {"wall_s": [i.wall_s for i in ok_timed],
           "cpu_s": [i.cpu_s for i in ok_timed],
           "probe_ms": [1e3 * i.probe_s for i in ok_timed],
           "setup_wall_s": [i.wall_s for i in setups]}
    e2e = {key: statistics.median(values) for key, values in samples.items()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(wall_s="s", cpu_s="s", probe_ms="ms", setup_wall_s="s")
    for key, values in list(samples.items()) + list(raw.items()):
        print(f"{key:14s} {statistics.median(values):10.4f} {units[key]:5s} "
              f"(median; {quartiles(values)}; all "
              f"{' '.join(f'{v:.3f}' for v in values)})")
    attempted = len(runner.invocations)
    print(f"{'error_rate':14s} {len(failures) / attempted:10.4f} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    for error in failures:
        print(f"  failed: {error}")

    if trace:
        metrics, mismatched = per_layer(spec, timed, traced)
        for mismatch in mismatched:
            print(f"  trace check failed: {mismatch}")
        if traced[-1].trace:
            print()
            print(layer_table(traced[-1].trace))
        print()
        print(f"trace.overhead_ratio "
              f"{metrics['trace.overhead_ratio']['value']:.4f} "
              f"(traced / untraced median ref_wall_s)")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        mismatched = []
    result = {"correct": not failures and not mismatched,
              "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record.update(samples=samples, raw=raw, result=result)
    (runner.work / "result.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

::

    python -m repro list                      # the Table-1 suite
    python -m repro study [--full] [--json F] # run the experiment matrix
    python -m repro tables all                # regenerate Tables 1-3
    python -m repro figures all               # regenerate Figures 3-6
    python -m repro ilp                       # ILP characterization (X1)
    python -m repro explore sewha --budget N  # ASIP design space (X2)
    python -m repro explore-study --budgets 1500,2500  # X2, whole suite
    python -m repro explore-study --frontier  # X2, every budget at once
    python -m repro cache show                # inspect the disk cache
    python -m repro analyze my_kernel.c       # analyze a user kernel
    python -m repro serve --socket /tmp/r.sock  # repro-as-a-service

``analyze`` compiles any mini-C file, fills its uninitialized global
arrays with seeded random data, runs the full pipeline at the requested
level and prints the detected sequences plus the coverage analysis.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
# The argparse level types need ``OptLevel``; every other import lives in
# the command that runs it, so no command loads another's modules.
from repro.opt.pipeline import OptLevel


def _parse_levels(text: str) -> tuple:
    # Same policy as --seeds/--budgets: empty, malformed and
    # out-of-range lists are rejected here, at the flag, with the
    # offending value named — not deep in the study as a generic
    # ValueError (or, worse, argparse's "invalid value" one-liner).
    try:
        levels = tuple(sorted({int(part) for part in text.split(",")
                               if part.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--levels expects comma-separated optimization levels "
            f"(e.g. 0,1,2), got {text!r}")
    if not levels:
        raise argparse.ArgumentTypeError(
            "--levels is empty: pass at least one optimization level")
    for level in levels:
        try:
            OptLevel(level)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--levels contains {level}: optimization levels are "
                f"{', '.join(str(int(l)) for l in OptLevel)}")
    return levels


def _parse_level(text: str) -> int:
    """A single ``--level`` value, validated at the flag."""
    try:
        level = int(text)
        OptLevel(level)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--level expects one optimization level "
            f"({', '.join(str(int(l)) for l in OptLevel)}), got {text!r}")
    return level


def _parse_lengths(text: str) -> tuple:
    # Chain lengths, not levels: any integer >= 2 ("chains have at
    # least two operations"), deduplicated and sorted like --levels.
    from repro.knobs import validate_knobs
    try:
        lengths = tuple(sorted({int(part) for part in text.split(",")
                                if part.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--lengths expects comma-separated chain lengths "
            f"(e.g. 2,3,4,5), got {text!r}")
    if not lengths:
        raise argparse.ArgumentTypeError(
            "--lengths is empty: pass at least one chain length")
    try:
        validate_knobs("--{}", lengths)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return lengths


def _parse_seeds(text: str) -> tuple:
    # Order is kept: the first seed is the primary result.  Empty,
    # malformed and duplicate-bearing lists are rejected here, at the
    # flag, instead of misbehaving (silent single-seed fallback /
    # double-counted seeds) deep inside the study — one policy, shared
    # with the API boundary.
    from repro.suite.runner import validate_seeds
    try:
        seeds = tuple(int(part) for part in text.split(",")
                      if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seeds expects comma-separated integers "
            f"(e.g. 0,1,2 or -1,3), got {text!r}")
    try:
        return validate_seeds(seeds, source="--seeds")
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# Any value token that *starts* like a negative number is joined onto
# its flag — including malformed tails like "-1,x", which must reach
# the flag's own parser to get its clear error instead of argparse's
# generic "expected one argument".
_NEGATIVE_VALUE = re.compile(r"-\d")

#: Flags taking comma-separated integer lists whose first element may be
#: negative (or negative-by-typo, which deserves the parser's message).
_INT_LIST_FLAGS = ("--seeds", "--budgets")


def _normalize_argv(argv: List[str]) -> List[str]:
    """Make ``--seeds -1,3`` (and friends) reach their value parsers.

    argparse treats any separate token starting with ``-`` as an option
    flag, so a leading negative value was swallowed as "expected one
    argument" before the validator ever saw it.  Joining the value onto
    the flag (``--seeds=-1,3`` — which argparse always accepted) keeps
    one parsing policy for every spelling; anything that merely *looks*
    negative but is malformed still lands in the flag's parser and gets
    its clear error message.
    """
    merged: List[str] = []
    it = iter(argv)
    for token in it:
        if token in _INT_LIST_FLAGS:
            value = next(it, None)
            if value is None:
                merged.append(token)
            elif _NEGATIVE_VALUE.match(value):
                merged.append(f"{token}={value}")
            else:
                merged.extend((token, value))
        else:
            merged.append(token)
    return merged


def _parse_budgets(text: str) -> tuple:
    # Order is kept (it is the report order); duplicates collapse.
    try:
        budgets = tuple(dict.fromkeys(
            int(part) for part in text.split(",") if part.strip()))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--budgets expects comma-separated integers "
            f"(e.g. 1500,2500), got {text!r}")
    if not budgets:
        raise argparse.ArgumentTypeError(
            "--budgets is empty: pass at least one area budget")
    for budget in budgets:
        if budget <= 0:
            raise argparse.ArgumentTypeError(
                f"--budgets contains {budget}: area budgets must be "
                f"positive")
    return budgets


def _add_engine_arg(parser) -> None:
    from repro.sim.machine import DEFAULT_ENGINE, ENGINES
    parser.add_argument("--engine", choices=ENGINES, default=DEFAULT_ENGINE,
                        help="simulation engine (default: %(default)s; "
                             "'reference' is the tree-walking oracle)")


def _add_cache_arg(parser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="compile-artifact disk cache directory "
                             "(default: $REPRO_CACHE or ~/.cache/repro; "
                             "'none' disables)")


def _add_jobs_arg(parser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the study matrix "
                             "(default: $REPRO_JOBS or 1 = serial, "
                             "bit-identical to any N; 0 = all cores)")


def _add_seeds_arg(parser) -> None:
    parser.add_argument("--seeds", type=_parse_seeds, default=None,
                        help="comma-separated input seeds batched through "
                             "one compiled program per cell (first seed "
                             "is the primary; default: --seed only)")


def _add_result_cache_arg(parser) -> None:
    parser.add_argument("--result-cache", action="store_true",
                        help="also cache whole study results in the disk "
                             "cache (repeats of an answered config load "
                             "from disk; same as REPRO_RESULT_CACHE=1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compiler-feedback ASIP design "
                    "(Onion/Nicolau/Dutt, DATE 1995) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table-1 benchmark suite")

    study = sub.add_parser("study", help="run the experiment matrix")
    study.add_argument("--benchmarks", default=None,
                       help="comma-separated subset (default: all 12)")
    study.add_argument("--levels", default="0,1,2", type=_parse_levels,
                       help="optimization levels (default 0,1,2)")
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--json", default=None,
                       help="also write the summary as JSON to this file")
    _add_engine_arg(study)
    _add_jobs_arg(study)
    _add_seeds_arg(study)
    _add_cache_arg(study)
    _add_result_cache_arg(study)

    tables = sub.add_parser("tables", help="regenerate paper tables")
    tables.add_argument("which", choices=("1", "2", "3", "all"))
    tables.add_argument("--benchmarks", default=None)
    _add_engine_arg(tables)
    _add_jobs_arg(tables)
    _add_seeds_arg(tables)
    _add_cache_arg(tables)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("which", choices=("3", "4", "5", "6", "all"))
    figures.add_argument("--benchmarks", default=None)
    _add_engine_arg(figures)
    _add_jobs_arg(figures)
    _add_seeds_arg(figures)
    _add_cache_arg(figures)

    sub.add_parser("ilp", help="ILP characterization of the suite (X1)")

    explore = sub.add_parser("explore",
                             help="ASIP design-space exploration (X2)")
    explore.add_argument("benchmark")
    explore.add_argument("--budget", type=int, default=2500)
    explore.add_argument("--level", type=_parse_level, default=1)
    _add_engine_arg(explore)
    _add_cache_arg(explore)

    explore_study = sub.add_parser(
        "explore-study",
        help="design-space exploration across the whole suite")
    explore_study.add_argument("--benchmarks", default=None,
                               help="comma-separated subset "
                                    "(default: all 12)")
    explore_study.add_argument("--budgets", default="2500",
                               type=_parse_budgets,
                               help="comma-separated area budgets "
                                    "explored per benchmark "
                                    "(default: %(default)s)")
    explore_study.add_argument("--level", type=_parse_level, default=1)
    explore_study.add_argument("--seed", type=int, default=0)
    explore_study.add_argument("--frontier", action="store_true",
                               help="sweep the full cost/performance "
                                    "frontier instead of the --budgets "
                                    "grid (every budget answered from "
                                    "one pass per benchmark; prints the "
                                    "composite Markdown report)")
    explore_study.add_argument("--max-budget", type=int, default=None,
                               help="budget ceiling for --frontier "
                                    "(default: unbounded — the whole "
                                    "candidate pool is swept)")
    explore_study.add_argument("--json", default=None,
                               help="also write the summary as JSON to "
                                    "this file")
    _add_engine_arg(explore_study)
    _add_jobs_arg(explore_study)
    _add_seeds_arg(explore_study)
    _add_cache_arg(explore_study)
    _add_result_cache_arg(explore_study)

    serve = sub.add_parser(
        "serve", help="run the repro service daemon (JSON requests "
                      "over a local socket; see README)")
    serve.add_argument("--socket", default=None,
                       help="Unix socket path to listen on")
    serve.add_argument("--port", type=int, default=None,
                       help="local TCP port to listen on (0 picks a "
                            "free one, printed at startup)")
    serve.add_argument("--status", action="store_true",
                       help="query a running daemon's status instead "
                            "of starting one")
    serve.add_argument("--no-result-cache", action="store_true",
                       help="serve without the whole-result disk tier "
                            "(on by default for the daemon)")
    _add_jobs_arg(serve)
    _add_cache_arg(serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the compile-artifact disk cache")
    cache.add_argument("action", choices=("show", "clear"))
    cache.add_argument("--verify", action="store_true",
                       help="scan every entry and report well-formed vs "
                            "corrupt counts (show only)")
    _add_cache_arg(cache)

    verify = sub.add_parser(
        "verify", help="range-analyse every benchmark's lowered words and "
                       "lint the simulator sources for nondeterminism")
    verify.add_argument("--benchmarks", default=None,
                        help="comma-separated subset (default: all 12)")
    verify.add_argument("--levels", default="0,1,2", type=_parse_levels,
                        help="optimization levels (default 0,1,2)")
    verify.add_argument("--skip-lint", action="store_true",
                        help="skip the determinism lint over sim/, exec/, "
                             "serve/ and analysis/")
    verify.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of the "
                             "Markdown summary")
    verify.add_argument("--output", default=None,
                        help="file for the Markdown summary "
                             "(default: stdout)")
    _add_cache_arg(verify)

    report = sub.add_parser("report",
                            help="write a Markdown study report")
    report.add_argument("--benchmarks", default=None)
    report.add_argument("--levels", default="0,1,2", type=_parse_levels)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--output", default=None,
                        help="file to write (default: stdout)")
    _add_engine_arg(report)
    _add_jobs_arg(report)
    _add_seeds_arg(report)
    _add_cache_arg(report)

    analyze = sub.add_parser("analyze", help="analyze a mini-C file")
    analyze.add_argument("file")
    analyze.add_argument("--level", type=_parse_level, default=1)
    analyze.add_argument("--lengths", default="2,3,4,5",
                         type=_parse_lengths)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--threshold", type=float, default=4.0,
                         help="coverage threshold percent")
    _add_engine_arg(analyze)
    _add_cache_arg(analyze)
    return parser


def _config(config_type, args, **knobs):
    """A study-family config from the flags this command defines: each
    parsed flag named like a field of *config_type*, then *knobs*.  A
    field no flag sets keeps its dataclass default."""
    import dataclasses
    names = {field.name for field in dataclasses.fields(config_type)}
    flags = {name: value for name, value in vars(args).items()
             if name in names}
    return config_type(**{**flags, **knobs})


def _study_config(args) -> "StudyConfig":
    from repro.feedback.study import StudyConfig
    benchmarks = (tuple(args.benchmarks.split(","))
                  if args.benchmarks else None)
    return _config(StudyConfig, args, benchmarks=benchmarks)


def cmd_list(_args, out) -> int:
    from repro.suite.registry import all_benchmarks
    for spec in all_benchmarks():
        print(f"{spec.name:10s} {spec.description:45s} "
              f"[{spec.data_description}]", file=out)
    return 0


def cmd_study(args, out) -> int:
    from repro.feedback.results import study_summary, summary_to_json
    from repro.feedback.study import run_study
    from repro.reporting.tables import table2

    study = run_study(_study_config(args),
                      progress=lambda name, stage:
                      print(f"  {name} @ {stage}", file=out))
    print(file=out)
    print(table2(study), file=out)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(summary_to_json(study))
        print(f"\nsummary written to {args.json}", file=out)
    else:
        summary = study_summary(study, top_n=3)
        print(f"\n{len(summary['benchmarks'])} benchmarks analyzed "
              f"at levels {summary['config']['levels']}", file=out)
    return 0


def cmd_tables(args, out) -> int:
    from repro.feedback.study import run_study
    from repro.reporting.tables import table1, table2, table3

    if args.which in ("1",):
        print(table1(), file=out)
        return 0
    study = run_study(_study_config(args))
    if args.which in ("2", "all"):
        if args.which == "all":
            print(table1(), file=out)
            print(file=out)
        print(table2(study), file=out)
    if args.which in ("3", "all"):
        names = [b for b in ("sewha", "feowf", "bspline", "edge", "iir")
                 if b in study.benchmarks]
        print(file=out)
        print(table3(study, benchmarks=names), file=out)
    return 0


def cmd_figures(args, out) -> int:
    from repro.feedback.study import run_study
    from repro.reporting.figures import figure3, figure4, figure5, figure6

    study = run_study(_study_config(args))
    renderers = {"3": figure3, "4": figure4, "5": figure5, "6": figure6}
    which = renderers if args.which == "all" else \
        {args.which: renderers[args.which]}
    for _key, render in sorted(which.items()):
        print(render(study), file=out)
        print(file=out)
    return 0


def cmd_ilp(_args, out) -> int:
    from repro.feedback.ilp import characterize_ilp, render_ilp_table
    from repro.feedback.study import run_study
    from repro.feedback.study import StudyConfig

    study = run_study(StudyConfig())
    print(render_ilp_table(characterize_ilp(study)), file=out)
    return 0


def cmd_explore_study(args, out) -> int:
    from repro.feedback.study import (ExplorationStudyConfig,
                                      run_exploration_study)

    benchmarks = None
    if args.benchmarks:
        # Same whitespace policy as --seeds/--budgets: "sewha, dft"
        # and trailing commas are fine.
        benchmarks = tuple(part.strip()
                           for part in args.benchmarks.split(",")
                           if part.strip())
        benchmarks = benchmarks or None
    if args.frontier:
        return _cmd_frontier_study(args, benchmarks, out)
    config = _config(ExplorationStudyConfig, args, benchmarks=benchmarks)
    study = run_exploration_study(
        config, progress=lambda name, stage:
        print(f"  {name} @ {stage}", file=out))
    print(file=out)
    header = (f"{'benchmark':10s} {'budget':>7s} {'cand':>5s} "
              f"{'meas':>5s} {'speedup':>8s} {'area':>6s}  best design")
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in study.summary_rows():
        speedup = (f"{row['best_speedup']:.3f}x"
                   if row["best_speedup"] else "-")
        area = str(row["best_area"]) if row["best_area"] else "-"
        chains = ", ".join(row["best_chains"]) or "(no viable design)"
        print(f"{row['benchmark']:10s} {row['budget']:7d} "
              f"{row['candidates']:5d} {row['measured']:5d} "
              f"{speedup:>8s} {area:>6s}  {chains}", file=out)
    if args.json:
        import json

        # The serve daemon answers explore-study requests with this
        # exact payload; sharing the builder keeps the two documents
        # interchangeable.
        from repro.feedback.results import exploration_payload
        with open(args.json, "w") as fh:
            json.dump(exploration_payload(study), fh, indent=2)
            fh.write("\n")
        print(f"\nsummary written to {args.json}", file=out)
    return 0


def _cmd_frontier_study(args, benchmarks, out) -> int:
    from repro.feedback.study import (FrontierStudyConfig,
                                      run_frontier_study)
    from repro.reporting.frontier import frontier_report

    config = _config(FrontierStudyConfig, args, benchmarks=benchmarks)
    study = run_frontier_study(
        config, progress=lambda name, stage:
        print(f"  {name} @ {stage}", file=out))
    print(file=out)
    print(frontier_report(study), file=out)
    if args.json:
        import json

        # Same document the serve daemon returns for frontier requests.
        from repro.feedback.results import frontier_payload
        with open(args.json, "w") as fh:
            json.dump(frontier_payload(study), fh, indent=2)
            fh.write("\n")
        print(f"\nsummary written to {args.json}", file=out)
    return 0


def cmd_cache(args, out) -> int:
    from repro.sim import diskcache

    root = diskcache.resolve_cache_root()
    if root is None:
        print("disk cache disabled "
              f"({diskcache.CACHE_ENV_VAR}={diskcache.DISABLE_VALUE})",
              file=out)
        return 0
    # Reuse the live process-wide handle when it covers the same root so
    # ``cache show`` reports the counters this process actually
    # accumulated (hits/misses of simulations run earlier in the same
    # invocation); a fresh handle would always read zero.
    cache = diskcache.get_cache()
    if cache is None or cache.root != Path(root):
        cache = diskcache.DiskCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {root}", file=out)
        return 0
    by_kind = {}
    total_bytes = 0
    for kind, path in cache.entries():
        try:
            size = path.stat().st_size
        except OSError:
            continue
        count, kind_bytes = by_kind.get(kind, (0, 0))
        by_kind[kind] = (count + 1, kind_bytes + size)
        total_bytes += size
    print(f"cache directory: {root}", file=out)
    print(f"format version:  v{diskcache.FORMAT_VERSION}", file=out)
    stale = len(cache.tmp_files())
    if stale:
        print(f"stale tmp files: {stale} (removed by 'cache clear')",
              file=out)
    if by_kind:
        for kind in sorted(by_kind):
            count, kind_bytes = by_kind[kind]
            print(f"  {kind:10s} {count:5d} entries, "
                  f"{kind_bytes / 1024:.1f} KiB", file=out)
        print(f"  {'total':10s} {sum(c for c, _ in by_kind.values()):5d} "
              f"entries, {total_bytes / 1024:.1f} KiB", file=out)
    else:
        print("entries:         none", file=out)
    counter_kinds = sorted(set(cache.hits) | set(cache.misses)
                           | set(cache.stores) | set(cache.corrupt)
                           | set(cache.failures) | set(cache.rejected))
    if counter_kinds:
        print("this process:", file=out)
        for kind in counter_kinds:
            line = (f"  {kind:10s} {cache.hits[kind]} hits, "
                    f"{cache.misses[kind]} misses, "
                    f"{cache.stores[kind]} stores")
            if cache.corrupt[kind]:
                line += f", {cache.corrupt[kind]} corrupt"
            if cache.rejected[kind]:
                line += f", {cache.rejected[kind]} rejected"
            if cache.failures[kind]:
                line += (f", {cache.failures[kind]} store "
                         f"failure{'s' if cache.failures[kind] != 1 else ''}")
            if cache.bytes_read[kind] or cache.bytes_written[kind]:
                line += (f", {cache.bytes_read[kind] / 1024:.1f} KiB "
                         f"read, {cache.bytes_written[kind] / 1024:.1f}"
                         f" KiB written")
            print(line, file=out)
        if cache.op_count:
            print("op latency:", file=out)
            for op in sorted(cache.op_count):
                count = cache.op_count[op]
                seconds = cache.op_seconds[op]
                avg_ms = seconds / count * 1000.0 if count else 0.0
                print(f"  {op:10s} {count:5d} ops, {seconds:.3f}s "
                      f"total, {avg_ms:.3f} ms avg", file=out)
        if cache.tmp_swept:
            print(f"  tmp swept  {cache.tmp_swept} stale file"
                  f"{'s' if cache.tmp_swept != 1 else ''}", file=out)
    else:
        print("this process:    no cache traffic yet", file=out)
    if getattr(args, "verify", False):
        from repro.analysis.sweep import scan_cache_entries
        well_formed, corrupt_n, details = scan_cache_entries(cache)
        print(f"verification:    {well_formed} well-formed, "
              f"{corrupt_n} corrupt", file=out)
        for detail in details:
            print(f"  {detail}", file=out)
        if corrupt_n:
            return 1
    return 0


def cmd_serve(args, out) -> int:
    if args.socket is None and args.port is None:
        raise ReproError("repro serve needs --socket PATH or --port N")
    if args.status:
        import json

        from repro.serve.client import ServeClient
        client = ServeClient(socket_path=args.socket, port=args.port,
                             timeout=30.0)
        try:
            response = client.request({"op": "status"})
        finally:
            client.close()
        print(json.dumps(response.get("result", response), indent=2,
                         sort_keys=True), file=out)
        return 0 if response.get("ok") else 1

    from repro.serve.daemon import ReproServer
    from repro.sim.diskcache import RESULT_ENV_VAR
    if args.no_result_cache:
        os.environ[RESULT_ENV_VAR] = "0"
    else:
        # The daemon is the result tier's home turf: long-lived process,
        # repeated questions.  On by default, explicit env wins.
        os.environ.setdefault(RESULT_ENV_VAR, "1")
    server = ReproServer(socket_path=args.socket, port=args.port,
                         jobs=args.jobs)
    thread = server.run_in_thread()
    where = (args.socket if args.socket
             else f"{server.host}:{server.bound_port}")
    print(f"repro serve listening on {where}", file=out, flush=True)
    thread.join()
    print("repro serve stopped", file=out)
    return 0


def cmd_explore(args, out) -> int:
    from repro.asip.explore import explore_designs
    from repro.exec.study import optimized_module
    from repro.suite.registry import get_benchmark

    spec = get_benchmark(args.benchmark)
    graph_module, _report = optimized_module(spec.name, args.level, 2)
    inputs = spec.generate_inputs(0)
    result = explore_designs(None, inputs, area_budget=args.budget,
                             level=OptLevel(args.level),
                             engine=args.engine, optimized=graph_module)
    print(f"{len(result.candidates)} candidate sequences under budget "
          f"{args.budget}", file=out)
    for cand in result.candidates:
        print(f"  {cand.label:28s} {cand.frequency:6.2f}%  "
              f"area {cand.area:5d}  saves {cand.cycles_saved}/issue",
              file=out)
    best = result.best
    if best is None:
        print("no viable design", file=out)
        return 1
    print(f"\nbest measured design: {', '.join(best.labels())}", file=out)
    print(f"  {best.evaluation.base_cycles} -> "
          f"{best.evaluation.chained_cycles} cycles "
          f"({best.speedup:.3f}x), area {best.area}", file=out)
    return 0


def _random_inputs(module, seed: int) -> dict:
    """Seeded random contents for every uninitialized global array."""
    rng = random.Random(seed)
    inputs = {}
    for name, sym in module.global_arrays.items():
        if name in module.array_initializers:
            continue
        if sym.is_float:
            inputs[name] = [rng.uniform(-1.0, 1.0)
                            for _ in range(sym.size)]
        else:
            inputs[name] = [rng.randint(-256, 255)
                            for _ in range(sym.size)]
    return inputs


def cmd_analyze(args, out) -> int:
    from repro.chaining.coverage import analyze_coverage
    from repro.chaining.detect import detect_sequences
    from repro.chaining.sequence import sequence_label
    from repro.frontend import compile_source
    from repro.opt.pipeline import optimize_module
    from repro.sim.machine import run_module

    with open(args.file) as fh:
        source = fh.read()
    module = compile_source(source, args.file, filename=args.file)
    graph_module, _ = optimize_module(module, OptLevel(args.level))
    inputs = _random_inputs(module, args.seed)
    result = run_module(graph_module, inputs, engine=args.engine)
    detection = detect_sequences(graph_module, result.profile,
                                 args.lengths)
    print(f"{args.file}: {result.cycles} cycles at level {args.level}, "
          f"{detection.total_ops} operations executed\n", file=out)
    for length in args.lengths:
        rows = detection.top(length, limit=8)
        if not rows:
            continue
        print(f"length-{length} sequences:", file=out)
        for name, freq in rows:
            print(f"    {sequence_label(name):28s} {freq:6.2f}%",
                  file=out)
    report = analyze_coverage(graph_module, result.profile,
                              lengths=args.lengths,
                              threshold=args.threshold)
    print(f"\ncoverage at threshold {args.threshold:.1f}%:", file=out)
    for step in report.steps:
        print(f"    {step.label:28s} covers {step.contribution:6.2f}%",
              file=out)
    print(f"    total: {report.coverage:.2f}% with "
          f"{report.sequence_count} chained instructions", file=out)
    return 0


def cmd_report(args, out) -> int:
    from repro.feedback.study import run_study
    from repro.reporting.markdown import study_report

    study = run_study(_study_config(args))
    text = study_report(study)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_verify(args, out) -> int:
    import json as _json

    from repro.analysis.lint import lint_determinism
    from repro.analysis.sweep import render_markdown, report_json, run_sweep

    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    report = run_sweep(benchmarks=benchmarks, levels=args.levels)
    failed = not report.ok
    lint = None
    if not args.skip_lint:
        lint = lint_determinism()
        failed = failed or not lint.ok
    if args.json:
        text = _json.dumps(report_json(report, lint), indent=2,
                           sort_keys=True) + "\n"
    else:
        text = render_markdown(report)
        if lint is not None:
            if lint.ok:
                text += (f"\nDeterminism lint: {lint.checks} checks over "
                         f"sim/, exec/, serve/ and analysis/ — clean.\n")
            else:
                text += (f"\nDeterminism lint: "
                         f"{len(lint.violations)} finding(s):\n")
                for violation in lint.violations:
                    text += f"- {violation}\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"verification summary written to {args.output}", file=out)
        if failed:
            for cell, violation in report.violations:
                print(f"FAIL {cell.benchmark} L{cell.level}: {violation}",
                      file=out)
    else:
        print(text, file=out)
    return 1 if failed else 0


_COMMANDS = {
    "list": cmd_list,
    "study": cmd_study,
    "tables": cmd_tables,
    "figures": cmd_figures,
    "ilp": cmd_ilp,
    "explore": cmd_explore,
    "explore-study": cmd_explore_study,
    "serve": cmd_serve,
    "cache": cmd_cache,
    "analyze": cmd_analyze,
    "report": cmd_report,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(list(argv)))
    if getattr(args, "cache_dir", None):
        # Exported to the environment so pool workers spawned later use
        # the same cache directory (or none).
        from repro.sim.diskcache import set_cache_dir
        set_cache_dir(args.cache_dir)
    if getattr(args, "result_cache", False):
        from repro.sim.diskcache import RESULT_ENV_VAR
        os.environ[RESULT_ENV_VAR] = "1"
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Seeded-bug audit: which guard catches which bug.

Each mutant is one string replacement in one source file under ``src/``.
For every mutant the script copies ``src/`` and ``tests/`` into a
temporary directory, applies the replacement there (the working tree is
never touched) and runs every guard against the copy:

* **goldens** — the five ``tests/golden/regen_*.py`` scripts, then a
  byte comparison of the regenerated snapshots with the committed ones;
* **fuzz** — ``tests/test_fuzz_engines.py`` at its default case count;
* **cache suites** — ``tests/test_diskcache.py``,
  ``tests/test_verify_artifacts.py`` and ``tests/test_provenance_keys.py``
  (the suites CI re-runs under ``REPRO_VERIFY=1``);
* **fault injection** — ``tests/test_failure_injection.py``;
* **repro verify** — the range analysis over the suite plus the
  determinism lint;
* **verify-on-load gate** — every suite module at levels 0-2 generated
  into an empty cache, then served again under ``REPRO_VERIFY=1``:
  caught when the gate rejects an entry.

The unmutated tree runs first and must pass every guard.  A guard that
fails, crashes or times out on a mutant counts as catching it.  The
report is Markdown: per guard, the mutants it caught and those caught
by no other guard, then one row per mutant.  A full run takes about 10
minutes on two cores, so it is a manual audit, not a CI step::

    python benchmarks/audit_guards.py                  # every mutant
    python benchmarks/audit_guards.py --only int-div-floors
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Per-guard wall-clock limit; a mutant that hangs a guard is caught.
TIMEOUT_S = 900

#: Environment knobs that would change what a guard exercises.
SCRUBBED = ("REPRO_CACHE", "REPRO_VERIFY", "REPRO_JOBS", "REPRO_ENGINE",
            "REPRO_RESULT_CACHE", "REPRO_FUZZ_CASES", "REPRO_FUZZ_SEED")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/repro
    old: str
    new: str
    what: str


#: Tampering applied to every codegen payload ``DiskCache.load`` serves,
#: so the stored bytes differ from what was stored.
_LOAD_SITE = '''            payload = entry["payload"]
        except FileNotFoundError:'''


def _tamper(code: str) -> str:
    body = "".join(f"                {line}\n"
                   for line in code.strip().splitlines())
    return ('            payload = entry["payload"]\n'
            '            if kind == "codegen":\n' + body +
            '        except FileNotFoundError:')


MUTANTS: Sequence[Mutant] = (
    Mutant("binop-operands-swapped", "sim/codegen.py",
           'self.emit(f"{r(word[1])} = {a} {word[2]} {b}")',
           'self.emit(f"{r(word[1])} = {b} {word[2]} {a}")',
           "generated `a - b` reads `b - a`"),
    Mutant("bounds-guard-lower-dropped", "sim/codegen.py",
           'self.emit(f"if 0 <= {index} < a{k}.size:")',
           'self.emit(f"if {index} < a{k}.size:")',
           "a negative load index reads from the end instead of faulting"),
    Mutant("return-counter-writeback-dropped", "sim/codegen.py",
           '        for e in counted:\n'
           '            self.emit(f"eh[{e}] += e{e}")\n'
           '        self.emit(f"return {value}")',
           '        self.emit(f"return {value}")',
           "branch counters are lost on return: profiles undercount"),
    Mutant("undefined-register-check-dropped", "sim/codegen.py",
           '            value = self._operand(word[2])\n',
           '            operand = word[2]\n'
           '            if type(operand) is tuple and len(operand) == 2:\n'
           '                operand = operand[0]  # checked read, unchecked\n'
           '            value = self._operand(operand)\n',
           "a move from an undefined register no longer faults"),
    Mutant("branch-counters-swapped", "sim/codegen.py",
           '                self.emit(f"    e{word[2]} += 1")\n'
           '                self.emit(f"    pc = {ordinal_of[word[3]]}")\n'
           '                self.emit("else:")\n'
           '                self.emit(f"    e{word[4]} += 1")',
           '                self.emit(f"    e{word[4]} += 1")\n'
           '                self.emit(f"    pc = {ordinal_of[word[3]]}")\n'
           '                self.emit("else:")\n'
           '                self.emit(f"    e{word[2]} += 1")',
           "taken and fall-through edge counts trade places"),
    Mutant("back-edge-limit-check-dropped", "sim/codegen.py",
           '            if op == JB:\n'
           '                self._emit_limit_check()\n',
           '            if op == JB:\n',
           "a loop closed by a back jump never hits the cycle limit"),
    Mutant("digest-ignores-array", "sim/diskcache.py",
           '    _feed_operand(parts, ins.array)\n', '',
           "modules differing only in a load's array share a key"),
    Mutant("digest-sorts-successors", "sim/diskcache.py",
           "','.join(map(str, node.succs))",
           "','.join(map(str, sorted(node.succs)))",
           "modules differing only in successor order share a key"),
    Mutant("fused-key-ignores-sites", "asip/select.py",
           'derive_stamp(fused, module, "fused", repr(site_key(sites)))',
           'derive_stamp(fused, module, "fused")',
           "every fused program of one resequenced module shares a "
           "provenance key"),
    Mutant("level0-oracle-skipped", "exec/study.py",
           "check_against=reference,", "check_against=None,",
           "`study` never compares levels 1/2 with level 0"),
    Mutant("fall-merge-widened-to-JB", "sim/codegen.py",
           "if target == src + 1 and op == J:",
           "if target == src + 1 and op in (J, JB):",
           "a back jump to the next word would merge into a straight "
           "line"),
    Mutant("int-div-floors", "sim/values.py",
           "    q = abs(a) // abs(b)\n"
           "    return q if (a >= 0) == (b >= 0) else -q",
           "    return a // b",
           "integer division floors instead of truncating (both "
           "engines)"),
    Mutant("payload-source-tampered", "sim/diskcache.py", _LOAD_SITE,
           _tamper('''
payload["sources"] = tuple(text.replace(" + ", " - ", 1)
                           for text in payload["sources"])
payload["code"] = None
'''),
           "a served entry's stored sources compute something else"),
    Mutant("payload-word-tampered", "sim/diskcache.py", _LOAD_SITE,
           _tamper('''
from repro.sim import engine as _e
from repro.sim.codegen import emit_sources
for lg in payload["graphs"].values():
    for word in lg.words:
        if word[0] == _e.BIN and word[2] == "+" \\
                and type(word[3]) is int and type(word[4]) is int:
            word[2] = "-"
            break
stored = _e.LoweredModule.from_graphs(None, payload["graphs"])
payload["sources"] = tuple(emit_sources(stored)[0])
payload["code"] = None
'''),
           "a served entry's words (and sources re-emitted from them) "
           "subtract where the program adds"),
    Mutant("payload-code-blob-tampered", "sim/diskcache.py", _LOAD_SITE,
           _tamper('''
import marshal
blob = marshal.dumps(tuple(
    compile(text.replace(" + ", " - ", 1), "<tampered>", "exec")
    for text in payload["sources"]))
payload["code"] = blob
payload["code_sha"] = hashlib.sha256(blob).hexdigest()
'''),
           "a served entry's code blob, with a matching checksum, was "
           "compiled from other sources"),
    Mutant("shared-prefix-not-copied", "opt/pipeline.py",
           "self.source, self.settings, self.graph_module.copy(),",
           "self.source, self.settings, self.graph_module,",
           "the study's level 1 compacts the shared prefix itself, so "
           "level 2 compacts level 1's graphs again"),
    Mutant("carried-use-mask-not-grown", "opt/percolation.py",
           "                        use_masks[target.id] |= use_mask\n",
           "",
           "a hoist target's carried use mask misses the moved op's "
           "reads, so later passes solve liveness too small"),
)

GOLDEN_SCRIPTS = ("regen_optimized_graphs.py", "regen_run_outputs.py",
                  "regen_generated_sources.py", "regen_tables.py",
                  "regen_frontier.py")

GATE_SCRIPT = """
import os
from repro.opt.pipeline import OptLevel, optimize_module
from repro.sim import diskcache
from repro.sim.codegen import generate_module
from repro.suite.registry import all_benchmarks
from repro.suite.runner import compile_benchmark
modules = [optimize_module(compile_benchmark(spec), OptLevel(level))[0]
           for spec in all_benchmarks() for level in (0, 1, 2)]
for gm in modules:
    generate_module(gm)
os.environ[diskcache.VERIFY_ENV_VAR] = "1"
diskcache.reset_cache_state()
for gm in modules:
    gm.__dict__.pop("_compiled", None)
    generate_module(gm)
raise SystemExit(1 if diskcache.get_cache().rejected["codegen"] else 0)
"""


def _run(argv: List[str], tree: Path, cache: str) -> bool:
    """Run *argv* in *tree*; True when it fails (the guard fires)."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = str(tree / "src")
    env["REPRO_CACHE"] = str(tree / cache)
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def _pytest(*files: str):
    return [sys.executable, "-m", "pytest", "-x", "-q",
            "-p", "no:cacheprovider", *files]


def _goldens(tree: Path) -> bool:
    for script in GOLDEN_SCRIPTS:
        if _run([sys.executable, f"tests/golden/{script}"], tree,
                "cache-goldens"):
            return True
    committed = ROOT / "tests" / "golden"
    return any(path.read_bytes() != (committed / path.name).read_bytes()
               for path in sorted((tree / "tests" / "golden").glob("*.json")))


GUARDS = {
    "goldens": _goldens,
    "fuzz": lambda tree: _run(_pytest("tests/test_fuzz_engines.py"), tree,
                              "cache-fuzz"),
    "cache suites": lambda tree: _run(
        _pytest("tests/test_diskcache.py", "tests/test_verify_artifacts.py",
                "tests/test_provenance_keys.py"),
        tree, "cache-suites"),
    "fault injection": lambda tree: _run(
        _pytest("tests/test_failure_injection.py"), tree, "cache-faults"),
    "repro verify": lambda tree: _run(
        [sys.executable, "-m", "repro", "verify"], tree, "cache-verify"),
    "verify-on-load gate": lambda tree: _run(
        [sys.executable, "-c", GATE_SCRIPT], tree, "cache-gate"),
}


def _tree(mutant: Optional[Mutant], scratch: Path) -> Path:
    tree = Path(tempfile.mkdtemp(prefix="audit-", dir=scratch))
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    if mutant is not None:
        path = tree / "src" / "repro" / mutant.path
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the replaced text occurs "
                             f"{text.count(mutant.old)} times in "
                             f"{mutant.path}, expected once")
        path.write_text(text.replace(mutant.old, mutant.new))
    return tree


def _audit(mutant: Optional[Mutant], scratch: Path) -> List[str]:
    tree = _tree(mutant, scratch)
    try:
        return [name for name, guard in GUARDS.items() if guard(tree)]
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def render(caught: Dict[str, List[str]]) -> str:
    lines = ["| guard | mutants caught (of %d) | caught by no other guard |"
             % len(caught), "|:--|--:|--:|"]
    for guard in GUARDS:
        mine = [m for m, guards in caught.items() if guard in guards]
        alone = [m for m in mine if caught[m] == [guard]]
        lines.append(f"| {guard} | {len(mine)} | {len(alone)} |")
    lines += ["", "| mutant | caught by | reason |", "|:--|:--|:--|"]
    what = {m.name: m.what for m in MUTANTS}
    for name, guards in caught.items():
        lines.append(f"| `{name}` | {', '.join(guards) or '**none**'} | "
                     f"{what[name]} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", default=None,
                        help="mutant names to run (default: all)")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS
               if args.only is None or m.name in args.only]
    with tempfile.TemporaryDirectory(prefix="audit-guards-") as scratch:
        fired = _audit(None, Path(scratch))
        if fired:
            print(f"unmutated tree fails: {', '.join(fired)}",
                  file=sys.stderr)
            return 1
        caught: Dict[str, List[str]] = {}
        for mutant in mutants:
            caught[mutant.name] = _audit(mutant, Path(scratch))
            print(f"{mutant.name}: {', '.join(caught[mutant.name]) or '-'}",
                  file=sys.stderr, flush=True)
    print(render(caught), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

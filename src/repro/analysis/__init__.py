"""Static analysis behind ``repro verify``.

The two engines are pinned bit-identical *dynamically* by the
differential and fuzz suites, which execute every artifact, and compiled
artifacts are checked by comparison: the committed goldens pin every
benchmark's optimized graphs and emitted sources, and the verify-on-load
gate (``REPRO_VERIFY``) compares each cached entry with a fresh
generation.  This package holds the checks that need no second copy to
compare against.

Submodules
----------
``cfg``
    Reconstructs the control-flow graph over the words emitted by
    ``lower_module`` (successors, predecessors).
``ranges``
    Interval analysis over the lowered words: classifies every array
    access SAFE / UNKNOWN / UNSAFE for ``repro verify``.
``lint``
    An AST determinism lint over ``sim/`` and ``exec/`` source that bans
    unordered set iteration and unsorted filesystem enumeration.
``sweep``
    Drives the range analysis across the benchmark suite, renders the
    ``repro verify`` Markdown summary and scans the disk cache for
    ``repro cache show --verify``.

Only this module and the dataclasses below are imported eagerly; submodules
pull in the simulator lazily so that cheap consumers (the CLI parser) do
not pay the import cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Violation", "VerifyResult"]


@dataclass(frozen=True)
class Violation:
    """One violated invariant, named so tests can assert on it.

    ``invariant`` is a stable kebab-case identifier (``bounds-unsafe``,
    ``unordered-set-iteration`` ...); ``detail`` is the human-readable
    diagnostic; ``graph`` names the function/graph (or file) the
    violation was found in, when there is one.
    """

    invariant: str
    detail: str
    graph: Optional[str] = None

    def __str__(self) -> str:
        where = f" [{self.graph}]" if self.graph else ""
        return f"{self.invariant}{where}: {self.detail}"


@dataclass
class VerifyResult:
    """Outcome of one verification pass: checks attempted and violations."""

    checks: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, ok: bool, invariant: str, detail: str,
              graph: Optional[str] = None) -> bool:
        """Record one check; collect a :class:`Violation` when it fails."""
        self.checks += 1
        if not ok:
            self.violations.append(Violation(invariant, detail, graph))
        return ok

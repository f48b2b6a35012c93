"""Static verification of lowered artifacts and generated source.

The two engines are pinned bit-identical *dynamically* by the differential
and fuzz suites, which execute every artifact.  This package is the static
counterpart: it proves a lowered word list, a generated codegen
source or a disk-cache payload well-formed *without running it*, the way
LLVM's IR verifier or Cranelift's CFG validator gate every pass with a
machine-checked invariant sweep.

Submodules
----------
``cfg``
    Reconstructs the control-flow graph over the words emitted by
    ``lower_module`` (successors, predecessors, reachability) and checks
    per-word layout invariants.
``verify_lowered``
    Cross-checks a :class:`_LoweredGraph` against its source
    :class:`ProgramGraph`: edge tables, branch-counter coverage, one
    jump word per derived edge, frame plans.
``verify_codegen``
    Parses generated codegen source with :mod:`ast` and checks definite
    assignment, counter write-back discipline, load bounds guards and
    dispatch targets.
``ranges``
    Interval analysis over the lowered words: classifies every array
    access SAFE / UNKNOWN / UNSAFE for ``repro verify --ranges``.
``lint``
    An AST determinism lint over ``sim/`` and ``exec/`` source that bans
    unordered set iteration and unsorted filesystem enumeration.
``sweep``
    Drives the whole verifier across the benchmark suite and renders the
    ``repro verify`` Markdown summary.

Only this module and the dataclasses below are imported eagerly; submodules
pull in the simulator lazily so that cheap consumers (the CLI parser) do
not pay the import cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import VerificationError

__all__ = ["Violation", "VerifyResult", "VerificationError"]


@dataclass(frozen=True)
class Violation:
    """One violated invariant, named so mutation tests can assert on it.

    ``invariant`` is a stable kebab-case identifier (``successor-ref``,
    ``counter-writeback`` ...); ``detail`` is the human-readable diagnostic;
    ``graph`` names the function/graph the violation was found in, when
    there is one.
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

    def merge(self, other: "VerifyResult") -> "VerifyResult":
        self.checks += other.checks
        self.violations.extend(other.violations)
        return self

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` naming every violation."""
        if self.violations:
            lines = "; ".join(str(v) for v in self.violations[:8])
            more = len(self.violations) - 8
            if more > 0:
                lines += f" (+{more} more)"
            raise VerificationError(
                f"{len(self.violations)} invariant violation(s): {lines}")

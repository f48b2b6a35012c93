"""Diagnostics and exception hierarchy shared by every stage of the toolchain.

Every error raised by the front end, the lowering stage, the optimizer, the
simulator or the analysis tools derives from :class:`ReproError`, so callers
can catch one type to handle any toolchain failure.  Front-end errors carry a
:class:`SourceLocation` that points back into the mini-C source text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in a mini-C source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<source>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class ReproError(Exception):
    """Base class for every error raised by the toolchain."""


class LexerError(ReproError):
    """Raised when the lexer encounters a character it cannot tokenize."""

    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{location}: lexical error: {message}")
        self.location = location


class ParseError(ReproError):
    """Raised when the parser cannot make sense of the token stream."""

    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{location}: syntax error: {message}")
        self.location = location


class SemanticError(ReproError):
    """Raised by semantic analysis (type errors, undeclared names, ...)."""

    def __init__(self, message: str, location: SourceLocation = None):
        prefix = f"{location}: " if location is not None else ""
        super().__init__(f"{prefix}semantic error: {message}")
        self.location = location


class LoweringError(ReproError):
    """Raised when the AST-to-IR lowering hits an unsupported construct."""


class IRError(ReproError):
    """Raised when an IR invariant is violated (see :mod:`repro.ir.verify`)."""


class SimulationError(ReproError):
    """Raised by the simulator: bad memory access, missing entry point, ..."""


class OptimizationError(ReproError):
    """Raised when an optimizer transformation would break program semantics."""


class AnalysisError(ReproError):
    """Raised by the sequence-detection / coverage analysis tools."""


class AsipError(ReproError):
    """Raised by the ASIP model (unknown chain pattern, budget misuse, ...)."""

"""Benchmark registry: Table 1 as data.

Collects the twelve program modules into :class:`BenchmarkSpec` records
carrying the Table-1 columns (name, description, C line count, input data
description) plus everything the runner needs (source, input generator,
output array names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.suite.programs import ALL_PROGRAMS


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of Table 1, with executable attachments."""

    name: str
    description: str
    data_description: str
    source: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    generator: Callable[[int], dict]

    @property
    def source_lines(self) -> int:
        """Non-blank source lines (Table 1's "Lines C-code" column)."""
        return sum(1 for line in self.source.splitlines() if line.strip())

    def generate_inputs(self, seed: int = 0) -> dict:
        return self.generator(seed)

    def __repr__(self) -> str:
        return f"<BenchmarkSpec {self.name}: {self.description}>"


def _build_registry() -> Dict[str, BenchmarkSpec]:
    registry: Dict[str, BenchmarkSpec] = {}
    for mod in ALL_PROGRAMS:
        spec = BenchmarkSpec(
            name=mod.NAME,
            description=mod.DESCRIPTION,
            data_description=mod.DATA_DESCRIPTION,
            source=mod.SOURCE,
            inputs=tuple(mod.INPUTS),
            outputs=tuple(mod.OUTPUTS),
            generator=mod.generate_inputs,
        )
        registry[spec.name] = spec
    return registry


_REGISTRY = _build_registry()

#: Table-1 order.
BENCHMARK_ORDER = ("fir", "iir", "pse", "intfft", "compress", "flatten",
                   "smooth", "edge", "sewha", "dft", "bspline", "feowf")


def benchmark_names() -> List[str]:
    """Benchmark names in Table-1 order."""
    return list(BENCHMARK_ORDER)


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown benchmark {name!r}; available: "
            f"{', '.join(benchmark_names())}")


def all_benchmarks() -> List[BenchmarkSpec]:
    return [_REGISTRY[name] for name in BENCHMARK_ORDER]


def selected_names(names: Optional[Sequence[str]]) -> List[str]:
    """*names* in first-seen order without repeats, or the whole suite in
    Table-1 order for ``None``; an unknown name raises before any work."""
    if names is None:
        return benchmark_names()
    names = list(dict.fromkeys(names))
    for name in names:
        get_benchmark(name)
    return names

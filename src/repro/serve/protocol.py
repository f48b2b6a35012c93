"""Wire protocol of the repro service.

Requests and responses are JSON objects, one per line (newline-
terminated UTF-8), over a Unix or local TCP socket.  Every request
carries an ``"op"`` naming the operation; the remaining fields are
op-specific knobs mirroring the CLI flags, all optional except where
noted.

The load-bearing idea is the **canonical request**: every request is
normalized — unknown ops and fields rejected, types checked, every
omitted knob materialized with its default — before anything else
happens.  Two requests that ask the same question (one spelling out
``"seed": 0``, one omitting it) canonicalize to the same dict, so their
:func:`request_digest` matches and the daemon's in-flight deduplication
and serve-level result cache treat them as one.  Field *order* never
matters: the digest hashes the sorted-keys JSON encoding.

Study-family requests (``study`` / ``explore-study`` / ``frontier``)
additionally build the corresponding :mod:`repro.feedback.study` config
via :func:`build_config`, running the same front-loaded validators the
library entry points run — a malformed request fails with a named-knob
message before any compile or worker spawn.

The payload builders produce exactly the JSON shapes the CLI's
``--json`` exports produce (the CLI calls the same builders, which for
the study family live in :mod:`repro.feedback.results`), so a served
answer and a ``python -m repro ... --json`` answer to the same question
are interchangeable documents.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Tuple

from repro.chaining.detect import DEFAULT_LENGTHS
from repro.errors import ReproError
from repro.feedback.results import exploration_payload, frontier_payload
from repro.sim.machine import DEFAULT_ENGINE

#: Sentinel default for fields a request must spell out.
_REQUIRED = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(op: str, name: str, value):
    if not _is_int(value):
        raise ReproError(f"{op} request field {name!r} must be an "
                         f"integer, got {value!r}")
    return value


def _opt_int(op: str, name: str, value):
    return None if value is None else _int(op, name, value)


def _number(op: str, name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(f"{op} request field {name!r} must be a "
                         f"number, got {value!r}")
    return float(value)


def _bool(op: str, name: str, value):
    if not isinstance(value, bool):
        raise ReproError(f"{op} request field {name!r} must be a "
                         f"boolean, got {value!r}")
    return value


def _str(op: str, name: str, value):
    if not isinstance(value, str):
        raise ReproError(f"{op} request field {name!r} must be a "
                         f"string, got {value!r}")
    return value


def _int_list(op: str, name: str, value):
    if not isinstance(value, list) or not value \
            or not all(_is_int(item) for item in value):
        raise ReproError(f"{op} request field {name!r} must be a "
                         f"non-empty list of integers, got {value!r}")
    return list(value)


def _opt_int_list(op: str, name: str, value):
    return None if value is None else _int_list(op, name, value)


def _opt_str_list(op: str, name: str, value):
    if value is None:
        return None
    if not isinstance(value, list) \
            or not all(isinstance(item, str) for item in value):
        raise ReproError(f"{op} request field {name!r} must be a list "
                         f"of strings (or null), got {value!r}")
    return list(value) or None


_FieldSpec = Dict[str, Tuple[object, Callable]]

#: Per-op field tables: ``field -> (default, type coercer)``.  Defaults
#: match the CLI flags and the feedback-layer config dataclasses, so an
#: empty request means exactly what the bare CLI command means.
_REQUEST_FIELDS: Dict[str, _FieldSpec] = {
    "analyze": {
        "source": (_REQUIRED, _str),
        "name": ("<request>", _str),
        "level": (1, _int),
        "lengths": ([2, 3, 4, 5], _int_list),
        "seed": (0, _int),
        "threshold": (4.0, _number),
        "engine": (DEFAULT_ENGINE, _str),
    },
    "explore": {
        "benchmark": (_REQUIRED, _str),
        "budget": (2500, _int),
        "level": (1, _int),
        "lengths": ([2, 3], _int_list),
        "seed": (0, _int),
        "max_candidates": (8, _int),
        "measure_top": (4, _int),
        "unroll_factor": (2, _int),
        "engine": (DEFAULT_ENGINE, _str),
    },
    "study": {
        "benchmarks": (None, _opt_str_list),
        "levels": ([0, 1, 2], _int_list),
        "lengths": (list(DEFAULT_LENGTHS), _int_list),
        "seed": (0, _int),
        "seeds": (None, _opt_int_list),
        "unroll_factor": (2, _int),
        "verify": (True, _bool),
        "engine": (DEFAULT_ENGINE, _str),
        "jobs": (None, _opt_int),
    },
    "explore-study": {
        "benchmarks": (None, _opt_str_list),
        "budgets": ([2500], _int_list),
        "level": (1, _int),
        "lengths": ([2, 3], _int_list),
        "seed": (0, _int),
        "seeds": (None, _opt_int_list),
        "unroll_factor": (2, _int),
        "max_candidates": (8, _int),
        "measure_top": (4, _int),
        "engine": (DEFAULT_ENGINE, _str),
        "jobs": (None, _opt_int),
    },
    "frontier": {
        "benchmarks": (None, _opt_str_list),
        "level": (1, _int),
        "lengths": ([2, 3], _int_list),
        "seed": (0, _int),
        "seeds": (None, _opt_int_list),
        "unroll_factor": (2, _int),
        "max_candidates": (8, _int),
        "measure_top": (4, _int),
        "max_budget": (None, _opt_int),
        "engine": (DEFAULT_ENGINE, _str),
        "jobs": (None, _opt_int),
    },
    "status": {},
    "shutdown": {},
}

REQUEST_OPS: Tuple[str, ...] = tuple(_REQUEST_FIELDS)

#: Ops that dispatch an evaluation (dedup + result tier apply).
EVAL_OPS: Tuple[str, ...] = ("analyze", "explore", "study",
                             "explore-study", "frontier")


def canonical_request(data: dict) -> dict:
    """Normalize one decoded request to its canonical form.

    Rejects unknown ops and unknown fields by name, type-checks every
    provided field, and materializes every omitted field's default —
    the returned dict always carries the complete knob set, so the
    digest of two equivalent requests matches regardless of which
    defaults each spelled out.
    """
    op = data.get("op")
    if not isinstance(op, str) or op not in _REQUEST_FIELDS:
        raise ReproError(
            f"unknown request op {op!r} (expected one of "
            f"{', '.join(REQUEST_OPS)})")
    spec = _REQUEST_FIELDS[op]
    unknown = sorted(set(data) - set(spec) - {"op"})
    if unknown:
        raise ReproError(
            f"{op} request has unknown field(s): {', '.join(unknown)}")
    canonical = {"op": op}
    for name in sorted(spec):
        default, coerce = spec[name]
        if name in data:
            canonical[name] = coerce(op, name, data[name])
        elif default is _REQUIRED:
            raise ReproError(
                f"{op} request is missing required field {name!r}")
        else:
            canonical[name] = default
    return canonical


def parse_request(line) -> dict:
    """Decode one wire line into a canonical request."""
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReproError(f"request is not valid UTF-8: {exc}")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"request is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ReproError(
            f"request must be a JSON object, got {type(data).__name__}")
    return canonical_request(data)


def request_digest(request: dict) -> str:
    """The canonical request's content digest (dedup/cache key)."""
    blob = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_config(request: dict, default_jobs=None):
    """The validated feedback-layer config for a study-family request.

    ``jobs`` defaults to the daemon's ``--jobs`` when the request leaves
    it null — a per-request override wins.  Validation is the same
    front-loaded pass :func:`repro.feedback.study.run_study` and friends
    run, so a bad engine name, duplicate seed, out-of-range level or
    unknown benchmark name is reported before the request is ever
    dispatched.
    """
    from repro.feedback.study import (ExplorationStudyConfig,
                                      FrontierStudyConfig, StudyConfig,
                                      selected_names,
                                      validate_exploration_config,
                                      validate_frontier_config,
                                      validate_study_config)
    op = request["op"]
    jobs = request.get("jobs")
    if jobs is None:
        jobs = default_jobs
    benchmarks = (tuple(request["benchmarks"])
                  if request.get("benchmarks") else None)
    seeds = tuple(request["seeds"]) if request.get("seeds") else None
    if op == "study":
        config = StudyConfig(
            benchmarks=benchmarks, levels=tuple(request["levels"]),
            lengths=tuple(request["lengths"]), seed=request["seed"],
            seeds=seeds, unroll_factor=request["unroll_factor"],
            verify=request["verify"], engine=request["engine"],
            jobs=jobs)
        validate_study_config(config)
    elif op == "explore-study":
        config = ExplorationStudyConfig(
            benchmarks=benchmarks, budgets=tuple(request["budgets"]),
            level=request["level"], lengths=tuple(request["lengths"]),
            seed=request["seed"], seeds=seeds,
            unroll_factor=request["unroll_factor"],
            max_candidates=request["max_candidates"],
            measure_top=request["measure_top"],
            engine=request["engine"], jobs=jobs)
        validate_exploration_config(config)
    elif op == "frontier":
        config = FrontierStudyConfig(
            benchmarks=benchmarks, level=request["level"],
            lengths=tuple(request["lengths"]), seed=request["seed"],
            seeds=seeds, unroll_factor=request["unroll_factor"],
            max_candidates=request["max_candidates"],
            measure_top=request["measure_top"],
            max_budget=request["max_budget"],
            engine=request["engine"], jobs=jobs)
        validate_frontier_config(config)
    else:
        raise ReproError(f"{op} requests do not build a study config")
    selected_names(config.benchmarks)
    return config


def validate_simple_request(request: dict) -> None:
    """Front-load validation of an ``analyze``/``explore`` request."""
    from repro.feedback.study import validate_knobs
    from repro.opt.pipeline import OptLevel
    from repro.sim.machine import ensure_engine
    op = request["op"]
    ensure_engine(request["engine"])
    try:
        OptLevel(request["level"])
    except ValueError:
        raise ReproError(
            f"{op} request field 'level' is {request['level']!r}: not "
            f"an optimization level (expected 0, 1 or 2)")
    knob = f"{op} request field '{{}}'"
    if op == "explore":
        validate_knobs(knob, request["lengths"], request["unroll_factor"],
                       request["max_candidates"], request["measure_top"])
    else:
        validate_knobs(knob, request["lengths"])
    if op == "explore" and request["budget"] <= 0:
        raise ReproError(
            f"explore request field 'budget' is {request['budget']}: "
            f"area budgets must be positive")
    if op == "analyze" and not request["source"].strip():
        raise ReproError("analyze request field 'source' is empty")


# -- response payloads -------------------------------------------------------------
#
# One builder per op, shared with the CLI's --json exports: the served
# "result" object and the file `python -m repro ... --json` writes are
# the same document.  The study-family builders live in
# repro.feedback.results, so the CLI's exports never import the daemon.


def study_payload(study) -> dict:
    """``study`` response payload (= ``repro study --json``)."""
    from repro.feedback.results import study_summary
    return study_summary(study)


def explore_payload(result) -> dict:
    """``explore`` payload: candidates, measured points, the winner."""
    def point(p) -> dict:
        return {
            "chains": p.labels(), "speedup": p.speedup, "area": p.area,
            "base_cycles": p.evaluation.base_cycles,
            "chained_cycles": p.evaluation.chained_cycles,
        }
    best = result.best
    return {
        "candidates": [{
            "label": cand.label, "frequency": cand.frequency,
            "area": cand.area, "cycles_saved": cand.cycles_saved,
        } for cand in result.candidates],
        "measured": [point(p) for p in result.measured],
        "best": point(best) if best is not None else None,
    }


def analyze_payload(request: dict, result, detection, report) -> dict:
    """``analyze`` payload: cycles, detected sequences, coverage."""
    from repro.chaining.sequence import sequence_label
    return {
        "name": request["name"],
        "level": request["level"],
        "cycles": result.cycles,
        "total_ops": detection.total_ops,
        "sequences": {
            str(length): [[sequence_label(name), freq]
                          for name, freq in detection.top(length,
                                                          limit=8)]
            for length in request["lengths"]},
        "coverage": {
            "threshold": request["threshold"],
            "total": report.coverage,
            "chained_instructions": report.sequence_count,
            "steps": [[step.label, step.contribution]
                      for step in report.steps]},
    }

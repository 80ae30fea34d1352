"""Wire protocol of the sweep service: job requests and fingerprints.

A job request is a plain JSON object naming *what to compute*, never how
or where.  Two kinds are understood:

* ``{"kind": "sweep", ...}`` — an ad-hoc design-space grid:
  :class:`~repro.sweep.analyze.SweepJobSpec`, whose fields and defaults
  the ``repro-experiment sweep`` flags share, producing the same JSON
  document byte-for-byte;
* ``{"kind": "experiment", ...}`` — registered paper experiments
  (``table4``, ``fig11``, ...), producing the same JSON array the CLI's
  ``--json`` mode prints.

Parsing normalizes a request into a frozen dataclass with every default
filled in, so logically identical submissions — however sparsely
spelled — share one :func:`fingerprint`.  The fingerprint is the job's
*content identity*: it hashes the canonical payload plus the workload
identity of any ``trace://`` benchmark (SHA-256 of the file's bytes,
via :func:`repro.sim.runner.workload_id`) plus the result-schema
version, so duplicate submissions coalesce onto one job while an edited
trace file or a result-schema change can never serve a stale report.

Validation failures raise :class:`ProtocolError` with a one-line reason
— the service maps these to HTTP 400 at submission time, before any
simulation time is spent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.experiments.common import DEFAULT_INSTRUCTIONS
from repro.experiments.registry import list_experiments
from repro.sim import runner
from repro.sim.runner import BACKENDS
from repro.sweep.analyze import COMPONENTS, SweepJobSpec
from repro.workload.formats import is_trace_ref
from repro.workload.profiles import benchmark_names

__all__ = [
    "COMPONENTS",
    "JOB_STATES",
    "ExperimentJobSpec",
    "ProtocolError",
    "SweepJobSpec",
    "fingerprint",
    "canonical_payload",
    "parse_job_request",
]

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Experiment ids whose workloads may be ``trace://`` refs: they replay
#: every workload through the sweep engine instead of indexing the
#: synthetic benchmark profile tables.
TRACE_CAPABLE_EXPERIMENTS = ("dynamic",)


class ProtocolError(ValueError):
    """A malformed job request; the message is the one-line 400 reason."""


@dataclass(frozen=True)
class ExperimentJobSpec:
    """A registered-experiments job (the CLI's ``--json`` mode shape)."""

    experiments: Tuple[str, ...]
    benchmarks: Tuple[str, ...] = ()  # () = all applications, paper order
    instructions: int = DEFAULT_INSTRUCTIONS
    backend: str = "reference"
    interval: int = 0

    kind = "experiment"


JobSpec = Union[SweepJobSpec, ExperimentJobSpec]


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise ProtocolError(reason)


def _str_tuple(data: Mapping[str, Any], field: str, default: Sequence[str]) -> Tuple[str, ...]:
    raw = data.get(field, list(default))
    _require(
        isinstance(raw, (list, tuple)) and all(isinstance(item, str) for item in raw),
        f"'{field}' must be a list of strings",
    )
    return tuple(raw)


def _int_tuple(data: Mapping[str, Any], field: str, default: Sequence[int]) -> Tuple[int, ...]:
    raw = data.get(field, list(default))
    _require(
        isinstance(raw, (list, tuple))
        and all(isinstance(item, int) and not isinstance(item, bool) for item in raw)
        and len(raw) > 0
        and all(item > 0 for item in raw),
        f"'{field}' must be a non-empty list of positive integers",
    )
    return tuple(raw)


def _int_field(data: Mapping[str, Any], field: str, default: int, minimum: int) -> int:
    raw = data.get(field, default)
    _require(
        isinstance(raw, int) and not isinstance(raw, bool) and raw >= minimum,
        f"'{field}' must be an integer >= {minimum}",
    )
    return raw


def _str_field(data: Mapping[str, Any], field: str, default: str) -> str:
    raw = data.get(field, default)
    _require(isinstance(raw, str), f"'{field}' must be a string")
    return raw


def _check_workloads(benchmarks: Sequence[str], allow_traces: bool) -> None:
    _require(len(benchmarks) > 0, "'benchmarks' must name at least one workload")
    valid = benchmark_names()
    for name in benchmarks:
        if name in valid:
            continue
        if allow_traces and is_trace_ref(name):
            try:  # resolves the file + format now, so submission fails fast
                runner.workload_id(name)
            except ValueError as error:
                raise ProtocolError(str(error)) from None
            continue
        suffix = " or trace://path[#format] refs" if allow_traces else ""
        raise ProtocolError(
            f"unknown benchmark {name!r}; valid: {list(valid)}{suffix}"
        )


def _parse_sweep(data: Mapping[str, Any]) -> SweepJobSpec:
    default = SweepJobSpec  # each field's default is a class attribute
    spec = SweepJobSpec(
        benchmarks=_str_tuple(data, "benchmarks", benchmark_names()),
        sizes=_int_tuple(data, "sizes", default.sizes),
        ways=_int_tuple(data, "ways", default.ways),
        latencies=_int_tuple(data, "latencies", default.latencies),
        policies=_str_tuple(data, "policies", default.policies),
        baseline_policy=_str_field(data, "baseline_policy", default.baseline_policy),
        instructions=_int_field(data, "instructions", default.instructions, 1),
        salt=_int_field(data, "salt", default.salt, -(2**31)),
        component=_str_field(data, "component", default.component),
        backend=_str_field(data, "backend", default.backend),
        interval=_int_field(data, "interval", default.interval, 0),
    )
    _require(len(spec.policies) > 0, "'policies' must name at least one policy kind")
    _require(
        spec.component in COMPONENTS,
        f"unknown component {spec.component!r}; valid: {COMPONENTS}",
    )
    _require(
        spec.backend in BACKENDS,
        f"unknown backend {spec.backend!r}; valid: {BACKENDS}",
    )
    _check_workloads(spec.benchmarks, allow_traces=True)
    try:  # unknown policy kinds / invalid cache shapes fail at submission
        spec.points()
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return spec


def _parse_experiment(data: Mapping[str, Any]) -> ExperimentJobSpec:
    default = ExperimentJobSpec
    spec = ExperimentJobSpec(
        experiments=_str_tuple(data, "experiments", ()),
        benchmarks=_str_tuple(data, "benchmarks", benchmark_names()),
        instructions=_int_field(data, "instructions", default.instructions, 1),
        backend=_str_field(data, "backend", default.backend),
        interval=_int_field(data, "interval", default.interval, 0),
    )
    _require(
        len(spec.experiments) > 0, "'experiments' must name at least one experiment"
    )
    valid = list_experiments()
    for experiment_id in spec.experiments:
        _require(
            experiment_id in valid,
            f"unknown experiment {experiment_id!r}; valid: {valid}",
        )
    _require(
        spec.backend in BACKENDS,
        f"unknown backend {spec.backend!r}; valid: {BACKENDS}",
    )
    # Most experiments index the benchmark profile tables, so
    # file-backed trace:// workloads are accepted only when every
    # requested experiment replays workloads through the sweep engine
    # (today: the ``dynamic`` static-vs-adaptive comparison); otherwise
    # use kind="sweep".
    allow_traces = all(
        experiment_id in TRACE_CAPABLE_EXPERIMENTS
        for experiment_id in spec.experiments
    )
    _check_workloads(spec.benchmarks, allow_traces=allow_traces)
    return spec


_PARSERS = {"sweep": _parse_sweep, "experiment": _parse_experiment}

#: Fields every request may carry beyond its kind's dataclass fields.
_COMMON_FIELDS = ("kind",)


def parse_job_request(data: Any) -> JobSpec:
    """Validate and normalize one submission body.

    Args:
        data: the decoded JSON body (must be an object).

    Returns:
        The frozen, default-filled job spec.

    Raises:
        ProtocolError: any malformed field, with a one-line reason.
    """
    _require(isinstance(data, dict), "request body must be a JSON object")
    kind = data.get("kind", "sweep")
    _require(
        isinstance(kind, str) and kind in _PARSERS,
        f"unknown job kind {kind!r}; valid: {tuple(_PARSERS)}",
    )
    known = set(_COMMON_FIELDS) | {
        name for name in (SweepJobSpec if kind == "sweep" else ExperimentJobSpec)
        .__dataclass_fields__
    }
    unknown = sorted(set(data) - known)
    _require(not unknown, f"unknown field(s) {unknown}; valid: {sorted(known)}")
    return _PARSERS[kind](data)


def canonical_payload(spec: JobSpec) -> Dict[str, Any]:
    """The normalized request as a JSON-safe dict (defaults filled in)."""
    payload: Dict[str, Any] = {"kind": spec.kind}
    for field, value in sorted(asdict(spec).items()):
        payload[field] = list(value) if isinstance(value, tuple) else value
    return payload


def fingerprint(spec: JobSpec) -> str:
    """Content identity of a job: what duplicate submissions coalesce on.

    Hashes the canonical payload, the *workload identity* of every
    benchmark (for ``trace://`` refs that is the file's content
    fingerprint, so an edited trace is a new job), and the result-schema
    version (so reports regenerate rather than go stale across schema
    changes).
    """
    workloads: List[str] = [
        runner.workload_id(name) for name in spec.benchmarks
    ]
    payload = json.dumps(
        {
            "request": canonical_payload(spec),
            "workloads": workloads,
            "schema": runner.SCHEMA_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

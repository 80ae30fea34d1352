"""Single-run backend: execute one (benchmark, config) point, memoized.

This module is the execution backend of the sweep engine
(:mod:`repro.sweep`): it owns trace memoization, result caching, and the
two run modes — ``"sim"`` (the full out-of-order simulator) and
``"missrate"`` (the functional hit/miss model behind Table 4).  The
``backend`` argument selects the implementation of either mode:
``"fast"`` runs sim points through the array-state core/fetch/engine
pipeline of :mod:`repro.fastsim`, and miss-rate points through the
numpy kernels (:mod:`repro.fastsim.vector`) when numpy imports or the
python per-set replay when it does not
(:func:`repro.fastsim.resolve_tier`).  Every kernel tier is
byte-identical to ``"reference"`` by contract.
The engine composes the primitives directly:

* :func:`load_cached` — resolve a run against the in-process and
  on-disk caches without executing anything;
* :func:`execute` — run the simulation, no caching (safe to call from a
  worker process);
* :func:`store_result` — publish a result into both caches.

Experiments share runs heavily (every figure normalizes against the same
parallel-access baseline), so results are memoized two ways:

* an in-process dictionary for the current interpreter;
* an optional on-disk JSON cache under ``.repro_cache/`` (disable by
  setting ``REPRO_DISK_CACHE=0``) keyed by a SHA-256 of (benchmark,
  config, instructions, salt, mode) *plus a schema version derived from
  the flat field names of* :class:`SimResult` (see
  :meth:`~repro.sim.results.SimResult.flat_field_names`), so stale
  entries written by an older result schema are simply not found
  instead of crashing — or worse, silently satisfying —
  deserialization.  Entries are stored via
  :meth:`~repro.sim.results.SimResult.to_flat` and rebuilt with
  :meth:`~repro.sim.results.SimResult.from_flat`.

Traces are also memoized per (benchmark, instructions, salt) because
generation is pure.

Workloads may be files as well as synthetic benchmarks: a benchmark
name of the form ``trace://path[#format]`` streams the named file
through the registered reader (:mod:`repro.workload.formats`) instead
of the generator, with ``instructions`` acting as a replay cap.  Both
cache layers key such runs by the file's *content fingerprint*
(:func:`workload_id`), so editing a trace on disk always re-executes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

from repro.fastsim.missrate import fast_miss_rate
from repro.fastsim.vector import resolve_tier, vector_miss_rate
from repro.sim.config import SystemConfig
from repro.sim.functional import MissRateResult, measure_miss_rate
from repro.sim.results import DynamicsMetrics, L1Metrics, SimResult
from repro.sim.simulator import BACKENDS, Simulator
from repro.workload.artifact import TraceArtifact, load_artifact, write_artifact
from repro.workload.encode import (
    _CACHE_ATTR as _ENCODE_ATTR,
    ENCODER_VERSION,
    EncodedTrace,
    encode_trace,
)
from repro.workload.formats import is_trace_ref, load_trace_ref, trace_ref_fingerprint
from repro.workload.generator import GENERATOR_VERSION, generate_trace
from repro.workload.trace import LazyTrace, Trace

__all__ = [
    "BACKENDS",
    "RUN_MODES",
    "artifact_dir",
    "artifact_stats",
    "cache_key",
    "clear_caches",
    "disk_cache_dir",
    "ensure_artifact",
    "execute",
    "get_trace",
    "load_cached",
    "reset_artifact_stats",
    "run_benchmark",
    "store_result",
    "workload_id",
]

#: Run modes understood by the backend.
RUN_MODES = ("sim", "missrate")

#: Functional measurement per resolved kernel tier.
_MISSRATE_MEASURES = {
    "reference": measure_miss_rate,
    "fast": fast_miss_rate,
    "vector": vector_miss_rate,
}

_RESULT_CACHE: Dict[str, SimResult] = {}

#: Traces (and, via their on-object memos, encodings) kept in memory,
#: in LRU order.  Bounded: a long-lived service process would otherwise
#: pin every distinct trace+limit's full trace and flat arrays forever.
#: Eviction is safe — regeneration/re-ingest is pure, and the persisted
#: artifact makes a re-encode after eviction cheap.
_TRACE_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()


def trace_cache_capacity() -> int:
    """Max traces kept in memory (``REPRO_TRACE_CACHE``, default 16;
    0 keeps one).

    Raises:
        ValueError: ``REPRO_TRACE_CACHE`` is set to a non-integer or a
            negative value; the message names the variable and its
            value.  A silent fallback here would hide a typo'd tuning
            knob until a long-lived service OOMs.
    """
    raw = os.environ.get("REPRO_TRACE_CACHE", "16")
    try:
        capacity = int(raw)
    except ValueError:
        capacity = -1
    if capacity < 0:
        raise ValueError(f"REPRO_TRACE_CACHE must be an integer >= 0, got {raw!r}")
    return max(1, capacity)

#: Cache schema version: changing any result section's shape changes
#: every key, so entries written by an older schema are ignored, not
#: mis-parsed.  The v2->v3 bump marks the nested-sections redesign.
SCHEMA_VERSION = hashlib.sha256(
    ",".join(SimResult.flat_field_names()).encode("utf-8")
).hexdigest()[:12]


def disk_cache_dir() -> Optional[Path]:
    """The on-disk result-cache directory, or ``None`` when disabled.

    Honors ``REPRO_DISK_CACHE=0`` (disable) and ``REPRO_CACHE_DIR``
    (location; default ``.repro_cache``).  This directory is the shared
    result store of the sweep service: every worker/shard publishes
    per-run results here under schema-versioned keys, so overlapping
    jobs resolve each other's completed work.
    """
    if os.environ.get("REPRO_DISK_CACHE", "1") == "0":
        return None
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


def workload_id(benchmark: str) -> str:
    """Content identity of a workload name, as cache keys see it.

    Synthetic benchmark names are their own identity (generation is
    pure).  A ``trace://`` reference resolves to the named file's
    content fingerprint — SHA-256 of its bytes plus the reader's format
    name/version — so editing a trace on disk, or changing how a format
    is parsed, can never serve a stale cached result.

    Raises:
        ValueError: a trace reference whose file is missing/unreadable
            or whose format is unknown.
    """
    if is_trace_ref(benchmark):
        return f"{benchmark}@{trace_ref_fingerprint(benchmark)}"
    return benchmark


# ------------------------------------------------------------------ #
# Encoded-trace artifacts (persistent, mmap-shared across workers)
# ------------------------------------------------------------------ #

#: Attribute carrying a trace's artifact cache key on the trace object.
_ARTIFACT_KEY_ATTR = "_artifact_key"

#: Per-process counters behind :func:`artifact_stats` (and the CLI's
#: ``[artifacts: N loaded, M written]`` stderr line).
_ARTIFACT_COUNTS = {"loads": 0, "stores": 0}
_ARTIFACT_LOCK = threading.Lock()

#: Section names known to be on disk per artifact key (from a load or a
#: publish this process performed) — a publish whose sections add
#: nothing over this set is skipped.
_ARTIFACT_ON_DISK: Dict[str, FrozenSet[str]] = {}

#: Keys whose exports failed value-range checks: never retried.
_ARTIFACT_UNCACHEABLE: set = set()


def artifact_dir() -> Optional[Path]:
    """The encoded-trace artifact directory, or ``None`` when disabled.

    Lives beside the run cache (``<cache>/artifacts``), so it inherits
    the run cache's switches: ``REPRO_DISK_CACHE=0`` or an unwritable
    ``REPRO_CACHE_DIR`` disables it too.  ``REPRO_NO_ARTIFACTS=1``
    disables artifacts alone, leaving result caching on — the knob the
    byte-identity CI diffs flip.
    """
    if os.environ.get("REPRO_NO_ARTIFACTS", "0") == "1":
        return None
    root = disk_cache_dir()
    if root is None:
        return None
    path = root / "artifacts"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path


def _artifact_key(benchmark: str, instructions: int, salt: int) -> str:
    """Stable identity of one workload's encoding.

    ``workload_id`` already folds a ``trace://`` file's content
    fingerprint (bytes + reader format/version) into the name; the
    generator and encoder versions cover the two remaining ways the
    flat arrays could change meaning without the inputs changing.
    """
    payload = (
        f"{workload_id(benchmark)}|{instructions}|{salt}"
        f"|gen=v{GENERATOR_VERSION}|enc=v{ENCODER_VERSION}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _open_artifact(key: str) -> Optional[TraceArtifact]:
    """The valid on-disk artifact for ``key``, or ``None``.

    The one artifact lookup of a trace resolution: a hit is counted as
    a load, and its sections are remembered as already on disk.
    """
    directory = artifact_dir()
    if directory is None:
        return None
    artifact = load_artifact(directory / f"{key}.etr")
    if artifact is not None:
        with _ARTIFACT_LOCK:
            _ARTIFACT_COUNTS["loads"] += 1
            _ARTIFACT_ON_DISK[key] = frozenset(artifact.section_names())
    return artifact


def _publish_artifact(trace: Trace) -> None:
    """Persist whatever ``trace``'s encoding has built (best-effort).

    No-op when artifacts are disabled, when nothing was encoded (the
    reference tier never encodes), or when everything built is already
    on disk.  An artifact holds the memory-op stream and, once a sim
    run built them, the instruction arrays, so the one re-publish is a
    full-sim run upgrading a mem-stream-only artifact: it rewrites the
    file with both, and artifact-resident sections pass through as
    mapped bytes, so upgrades never re-read the source.
    """
    directory = artifact_dir()
    if directory is None:
        return
    key = getattr(trace, _ARTIFACT_KEY_ATTR, None)
    encoded = getattr(trace, _ENCODE_ATTR, None)
    if key is None or encoded is None or key in _ARTIFACT_UNCACHEABLE:
        return
    on_disk = _ARTIFACT_ON_DISK.get(key)
    if on_disk is not None and (encoded.ops is None or "ops" in on_disk):
        return
    try:
        sections = encoded.export_sections()
    except (OverflowError, ValueError, TypeError):
        # A source value out of range for its on-disk dtype: this
        # workload is un-cacheable, permanently.
        _ARTIFACT_UNCACHEABLE.add(key)
        return
    if write_artifact(
        directory / f"{key}.etr", encoded.name, encoded.instructions, sections
    ):
        with _ARTIFACT_LOCK:
            _ARTIFACT_COUNTS["stores"] += 1
            _ARTIFACT_ON_DISK[key] = frozenset(sections)


def ensure_artifact(
    benchmark: str, instructions: int, salt: int = 0, mode: str = "missrate"
) -> Optional[Path]:
    """Build-or-load the workload's artifact now; return its path.

    The sweep engine calls this in the parent before fanning a pool
    out, so every worker process opens the finished artifact instead of
    re-parsing and re-encoding.  ``mode="sim"`` additionally persists
    the full instruction arrays; for an artifact-backed encoding both
    forces are O(1), so re-ensuring is free.
    """
    directory = artifact_dir()
    if directory is None:
        return None
    trace = get_trace(benchmark, instructions, salt)
    encoded = encode_trace(trace)
    if mode == "sim":
        encoded.ensure_instr_arrays(trace)
    len(encoded)  # force the mem stream (no-op when artifact-backed)
    _publish_artifact(trace)
    key = getattr(trace, _ARTIFACT_KEY_ATTR, None)
    if key is None:  # pragma: no cover - get_trace always stamps it
        return None
    path = directory / f"{key}.etr"
    return path if path.exists() else None


def artifact_stats() -> Dict[str, int]:
    """Artifact cache activity and footprint (for ``/stats`` and CLI).

    ``loads``/``stores`` count this process's artifact opens and
    publishes; ``files``/``bytes`` scan the shared directory.
    """
    with _ARTIFACT_LOCK:
        stats = dict(_ARTIFACT_COUNTS)
    stats["files"] = 0
    stats["bytes"] = 0
    directory = artifact_dir()
    if directory is not None:
        for path in directory.glob("*.etr"):
            try:
                stats["bytes"] += path.stat().st_size
                stats["files"] += 1
            except OSError:  # pragma: no cover - racing a concurrent gc
                continue
    return stats


def reset_artifact_stats() -> None:
    """Zero the per-process load/store counters (tests, CLI runs)."""
    with _ARTIFACT_LOCK:
        _ARTIFACT_COUNTS["loads"] = 0
        _ARTIFACT_COUNTS["stores"] = 0


def _validate_interval(interval: int) -> None:
    """Reject an invalid tick period before any key is built."""
    if interval < 0:
        raise ValueError(f"interval must be >= 0 (0 = no ticks), got {interval}")


def _interval_token(interval: int) -> str:
    """The cache-key component naming the tick period (``static`` = none)."""
    return "static" if interval == 0 else f"interval={interval}"


def cache_key(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    mode: str = "sim",
    backend: str = "reference",
    interval: int = 0,
) -> str:
    """Stable cache key for one run (includes the result-schema version).

    One field per reason a result can differ:

    * the workload: :func:`workload_id`, which folds a ``trace://``
      file's content fingerprint into the name;
    * the system (``config.key()``, the policies' parameters included),
      trace length, salt and run mode;
    * the backend: results are byte-identical by contract, but a
      backend bug must never satisfy the other backend's lookups.  The
      kernel tier a backend resolves to is not a field, so a cache
      filled with numpy present also serves a process without it;
    * the tick period (``static`` when 0): a dynamic policy's
      behaviour is a function of it;
    * the payload version and result-schema hash: a new version
      retires results an older simulator wrote, and the schema hash
      retires blobs of another result shape.
    """
    _validate_interval(interval)
    payload = (
        f"{workload_id(benchmark)}|{config.key()}|{instructions}|{salt}|{mode}|{backend}"
        f"|{_interval_token(interval)}|v11:{SCHEMA_VERSION}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_disk(key: str) -> Optional[SimResult]:
    directory = disk_cache_dir()
    if directory is None:
        return None
    path = directory / f"{key}.json"
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        # from_flat raises ValueError on a stale or foreign schema: a miss.
        return SimResult.from_flat(data) if isinstance(data, dict) else None
    except (OSError, ValueError, TypeError):
        return None


def _store_disk(key: str, result: SimResult) -> None:
    directory = disk_cache_dir()
    if directory is None:
        return
    path = directory / f"{key}.json"
    # Atomic publish (temp sibling + rename, the trace writers'
    # convention): concurrent workers and service shards share this
    # directory, so a reader must never observe a torn entry.  Both
    # backends write byte-identical results for one key, so concurrent
    # writers racing on the final rename are harmless.  The temp name
    # carries the thread id too: service worker threads publish from
    # one process, and a shared temp file would tear under truncation.
    tmp = path.with_name(
        f".tmp{os.getpid()}.{threading.get_native_id()}.{path.name}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(result.to_flat(), handle)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        # caching is best-effort


def get_trace(benchmark: str, instructions: int, salt: int = 0) -> Trace:
    """Return the (memoized) trace for a benchmark or ``trace://`` ref.

    Synthetic benchmarks generate exactly ``instructions`` instructions,
    as columns: the fast/vector tiers encode from them in O(1), and
    only the reference tier builds the ``Instr`` list.  For a trace
    reference the file streams back instead: ``instructions`` caps the
    replay length (``<= 0`` means the whole file), ``salt`` is ignored,
    and the memo key carries the file's content fingerprint so an
    edited file is re-ingested, never served from memory.

    When the workload's encoded-trace artifact is on disk, its header
    answers ``name`` and ``len()`` and its sections answer the
    fast/vector tiers, so nothing is generated or parsed up front: a
    synthetic benchmark comes back as a :class:`LazyTrace` that
    generates on first touch (only the reference tier, and a sim run
    over a mem-only artifact, touch it), and a file's streaming trace
    knows its length without a counting pass.
    """
    is_ref = is_trace_ref(benchmark)
    key = (workload_id(benchmark) if is_ref else benchmark, instructions, salt)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        _TRACE_CACHE.move_to_end(key)
        return trace
    artifact_key = _artifact_key(benchmark, instructions, salt)
    artifact = _open_artifact(artifact_key)
    length = artifact.instructions if artifact is not None else None
    if is_ref:
        trace = load_trace_ref(
            benchmark, limit=instructions if instructions > 0 else None,
            length=length,
        )
    elif artifact is not None:
        trace = LazyTrace(
            artifact.name, length,
            lambda: generate_trace(benchmark, instructions, salt),
        )
    else:
        trace = generate_trace(benchmark, instructions, salt)
    # The key tells a later publish where to write; a loaded artifact
    # pre-seeds the encoding memo, so the fast/vector tiers skip the
    # encode pass and the vector tier reads the mapped pages directly.
    setattr(trace, _ARTIFACT_KEY_ATTR, artifact_key)
    if artifact is not None:
        setattr(trace, _ENCODE_ATTR, EncodedTrace.from_artifact(artifact))
    _trace_cache_put(key, trace)
    return trace


def _trace_cache_put(key: Tuple[str, int, int], trace: Trace) -> None:
    """Insert into the trace memo, evicting least-recently-used
    entries past the capacity bound."""
    _TRACE_CACHE[key] = trace
    _TRACE_CACHE.move_to_end(key)
    capacity = trace_cache_capacity()
    while len(_TRACE_CACHE) > capacity:
        _TRACE_CACHE.popitem(last=False)


# ------------------------------------------------------------------ #
# Sweep-engine primitives
# ------------------------------------------------------------------ #


def load_cached(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    mode: str = "sim",
    backend: str = "reference",
    interval: int = 0,
) -> Optional[SimResult]:
    """Resolve one run against the caches; ``None`` means "must execute"."""
    key = cache_key(benchmark, config, instructions, salt, mode, backend, interval)
    cached = _RESULT_CACHE.get(key)
    if cached is None:
        cached = _load_disk(key)
        if cached is not None:
            _RESULT_CACHE[key] = cached
    return cached


def _build_missrate_result(
    trace: Trace, config: SystemConfig, measured: MissRateResult,
    interval: int = 0,
) -> SimResult:
    """Package functional miss counters as a :class:`SimResult`."""
    result = SimResult(benchmark=trace.name, config_key=config.key())
    # The replayed count: identical to ``instructions`` for synthetic
    # benchmarks, the (possibly capped) file length for ingested traces.
    # len() is free here: an artifact header supplied it, or the
    # measurement pass memoized a streaming trace's length.
    result.core.instructions = len(trace)
    result.dcache = L1Metrics(
        loads=measured.load_accesses,
        stores=measured.accesses - measured.load_accesses,
        load_misses=measured.load_misses,
        misses=measured.misses,
    )
    if measured.ticks > 0:
        result.dynamics = DynamicsMetrics(
            interval=interval,
            ticks=measured.ticks,
            reconfigurations=measured.reconfigurations,
            bypass_toggles=measured.bypass_toggles,
            bypassed_accesses=measured.bypassed_accesses,
            final_size_bytes=measured.final_size_bytes,
        )
    return result


def _dynamic_policy_factory(config: SystemConfig):
    """A zero-arg factory for the config's d-cache policy, when dynamic.

    Returns ``None`` for static kinds: the miss-rate path then runs the
    ordinary (tickless) kernels, so a static config at ``interval > 0``
    is byte-identical to the same config at ``interval == 0`` — only
    its cache key differs.
    """
    from repro.core.registry import get_policy

    spec = config.dcache_policy
    if not get_policy(spec.kind, "dcache").dynamic:
        return None
    return spec.build


def execute(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    mode: str = "sim",
    backend: str = "reference",
    interval: int = 0,
) -> SimResult:
    """Run one point, bypassing all caches (worker-process safe)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
    _validate_interval(interval)
    if mode == "sim":
        trace = get_trace(benchmark, instructions, salt)
        return Simulator(config, backend=backend, interval=interval).run(trace)
    if mode == "missrate":
        trace = get_trace(benchmark, instructions, salt)
        factory = _dynamic_policy_factory(config) if interval > 0 else None
        measured = _MISSRATE_MEASURES[resolve_tier(backend, mode)](
            trace, config.dcache.geometry(),
            interval=interval if factory is not None else 0,
            policy_factory=factory,
        )
        return _build_missrate_result(trace, config, measured, interval)
    raise ValueError(f"unknown run mode {mode!r}; valid: {RUN_MODES}")


def store_result(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    result: SimResult,
    salt: int = 0,
    mode: str = "sim",
    backend: str = "reference",
    interval: int = 0,
) -> None:
    """Publish a result into the in-process and on-disk caches."""
    key = cache_key(benchmark, config, instructions, salt, mode, backend, interval)
    _RESULT_CACHE[key] = result
    _store_disk(key, result)


def run_benchmark(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    use_cache: bool = True,
    mode: str = "sim",
    backend: str = "reference",
    interval: int = 0,
) -> SimResult:
    """Simulate ``benchmark`` under ``config``; memoized."""
    if use_cache:
        cached = load_cached(
            benchmark, config, instructions, salt, mode, backend, interval
        )
        if cached is not None:
            return cached
    result = execute(benchmark, config, instructions, salt, mode, backend, interval)
    if use_cache:
        store_result(
            benchmark, config, instructions, result, salt, mode, backend, interval
        )
    # Persist whatever the run just encoded, independent of the result
    # caches (`use_cache=False` governs result reuse, not derived
    # state): the next process — pool worker, service restart — maps it
    # instead of re-encoding.  The reference tier never encodes, so
    # this is a no-op there.
    trace = _TRACE_CACHE.get(
        (workload_id(benchmark) if is_trace_ref(benchmark) else benchmark,
         instructions, salt)
    )
    if trace is not None:
        _publish_artifact(trace)
    return result


def clear_caches(disk: bool = False) -> None:
    """Drop memoized traces/results (tests use this for isolation)."""
    _RESULT_CACHE.clear()
    _TRACE_CACHE.clear()
    _ARTIFACT_ON_DISK.clear()
    _ARTIFACT_UNCACHEABLE.clear()
    if disk:
        directory = disk_cache_dir()
        if directory is not None:
            for path in directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
        artifacts = artifact_dir()
        if artifacts is not None:
            for path in artifacts.glob("*.etr"):
                try:
                    path.unlink()
                except OSError:
                    pass

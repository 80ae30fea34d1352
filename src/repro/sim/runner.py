"""Single-run backend: execute one (benchmark, config) point, memoized.

This module is the execution backend of the sweep engine
(:mod:`repro.sweep`): it owns trace memoization, result caching, and the
two run modes — ``"sim"`` (the full out-of-order simulator) and
``"missrate"`` (the functional hit/miss model behind Table 4).  The
``backend`` argument selects the implementation of either mode:
``"fast"`` runs miss-rate points through the batched per-set replay and
sim points through the array-state core/fetch/engine pipeline of
:mod:`repro.fastsim`; ``"vector"`` runs miss-rate points through the
numpy kernels (:mod:`repro.fastsim.vector`) and sim points through the
same fast pipeline.  All tiers are byte-identical to ``"reference"`` by
contract, and resolution is dynamic (:func:`repro.fastsim.resolve_tier`):
``"fast"`` auto-upgrades miss-rate runs to the vector kernels when
numpy is importable, ``"vector"`` silently degrades without it, and
``REPRO_NO_VECTOR=1`` pins both to the python kernels.
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
import multiprocessing
import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from pickle import PicklingError
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.fastsim.missrate import fast_miss_rate, fast_miss_rate_window
from repro.fastsim.vector import (
    resolve_tier,
    vector_miss_rate,
    vector_miss_rate_window,
)
from repro.sim.config import SystemConfig
from repro.sim.functional import (
    MissRateResult,
    measure_miss_rate,
    measure_miss_rate_window,
    merge_miss_rates,
    trace_mem_ops,
)
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
from repro.workload.trace import ChunkPlan, LazyTrace, Trace, plan_chunks

__all__ = [
    "BACKENDS",
    "CHUNK_REPORT_ATTR",
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

#: Window-replay form per resolved kernel tier (chunked execution).
_WINDOW_MEASURES = {
    "reference": measure_miss_rate_window,
    "fast": fast_miss_rate_window,
    "vector": vector_miss_rate_window,
}

#: Warmup fraction of the serial miss-rate path (the chunk planner must
#: place the global counting boundary exactly where serial replay does).
_WARMUP_FRACTION = 0.2

#: Attribute carrying a chunked run's error-bound report on its
#: :class:`SimResult`.  Deliberately *not* a flat field: chunked and
#: serial ``to_flat()`` exports must stay byte-identical.
CHUNK_REPORT_ATTR = "chunk_report"

_RESULT_CACHE: Dict[str, SimResult] = {}

#: Traces (and, via their on-object memos, encodings) kept in memory,
#: in LRU order.  Bounded: a long-lived service process would otherwise
#: pin every distinct trace+limit's full trace and flat arrays forever.
#: Eviction is safe — regeneration/re-ingest is pure, and the persisted
#: artifact makes a re-encode after eviction cheap.
_TRACE_CACHE: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()


def _trace_cache_capacity() -> int:
    """Max traces kept in memory (``REPRO_TRACE_CACHE``, default 16).

    Raises:
        ValueError: ``REPRO_TRACE_CACHE`` is set to a non-integer or a
            negative value.  A silent fallback here would hide a typo'd
            tuning knob until a long-lived service OOMs.
    """
    raw = os.environ.get("REPRO_TRACE_CACHE", "16")
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TRACE_CACHE must be an integer, got {raw!r}"
        ) from None
    if capacity < 0:
        raise ValueError(
            f"REPRO_TRACE_CACHE must be >= 0, got {capacity}"
        )
    return max(1, capacity)

#: Flat keys a cached JSON blob must carry to round-trip losslessly.
_RESULT_FIELDS = SimResult.flat_field_names()

#: The same schema with the optional dynamics section attached — what a
#: ticked run's blob carries.  Both spellings are valid on disk.
_RESULT_FIELDS_WITH_DYNAMICS = tuple(
    sorted(_RESULT_FIELDS + SimResult.optional_flat_field_names())
)

#: Cache schema version: changing any result section's shape changes
#: every key, so entries written by an older schema are ignored, not
#: mis-parsed.  The v2->v3 bump marks the nested-sections redesign.
SCHEMA_VERSION = hashlib.sha256(",".join(_RESULT_FIELDS).encode("utf-8")).hexdigest()[:12]


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


_disk_cache_dir = disk_cache_dir  # internal alias (pre-service name)


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


def _section_names(encoded: EncodedTrace) -> FrozenSet[str]:
    """Sections an export of ``encoded`` would contain, without
    materializing any payload."""
    from repro.workload.artifact import INSTR_SECTIONS

    names = {"addrs", "is_load"}
    names.update(f"blocks:{bits}" for bits in encoded._block_cache)
    names.update(f"blocks:{key[1]}" for key in encoded._np_cache if key[0] == "blocks")
    if encoded._artifact is not None:
        names.update(encoded._artifact.section_names())
    if encoded.ops is not None:
        names.update(name for name, _dtype in INSTR_SECTIONS)
    return frozenset(names)


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
    on disk.  A re-publish after new sections appear (e.g. a full-sim
    run adding instruction arrays to a mem-stream-only artifact)
    rewrites the file with the union — artifact-resident sections pass
    through as mapped bytes, so upgrades never re-read the source.
    """
    directory = artifact_dir()
    if directory is None:
        return
    key = getattr(trace, _ARTIFACT_KEY_ATTR, None)
    encoded = getattr(trace, _ENCODE_ATTR, None)
    if key is None or encoded is None or key in _ARTIFACT_UNCACHEABLE:
        return
    names = _section_names(encoded)
    if names <= _ARTIFACT_ON_DISK.get(key, frozenset()):
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
    out, so every worker process (and, under chunked replay, every
    chunk worker) opens the finished artifact instead of re-parsing and
    re-encoding.  ``mode="sim"`` additionally persists the full
    instruction arrays; for an artifact-backed encoding both forces are
    O(1), so re-ensuring is free.
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


def _validate_chunking(mode: str, chunks: int, chunk_overlap: Optional[int]) -> None:
    """Reject invalid chunk-plan coordinates before any key is built."""
    if chunks < 0:
        raise ValueError(f"chunks must be >= 0 (0 = serial), got {chunks}")
    if chunks > 0 and mode != "missrate":
        raise ValueError(
            f"chunked replay requires mode='missrate', got mode={mode!r}"
        )
    if chunk_overlap is not None:
        if chunks == 0:
            raise ValueError("chunk_overlap requires chunks > 0")
        if chunk_overlap < 0:
            raise ValueError(
                f"chunk_overlap must be >= 0 or None (full prefix), "
                f"got {chunk_overlap}"
            )


def _validate_interval(interval: int, chunks: int) -> None:
    """Reject invalid interval coordinates before any key is built.

    Interval ticking and chunked replay are mutually exclusive: a chunk
    replays from cold state with no policy, so a dynamic policy's
    reconfiguration history could never be reproduced chunk-locally.
    """
    if interval < 0:
        raise ValueError(f"interval must be >= 0 (0 = no ticks), got {interval}")
    if interval > 0 and chunks > 0:
        raise ValueError(
            "interval ticks are incompatible with chunked replay; "
            "use chunks=0 with interval > 0"
        )


def _interval_token(interval: int) -> str:
    """The cache-key component naming the tick period (``static`` = none)."""
    return "static" if interval == 0 else f"interval={interval}"


def _chunk_token(chunks: int, chunk_overlap: Optional[int]) -> str:
    """The cache-key component naming the chunk plan.

    The realized region boundaries are deliberately *not* part of the
    token: they are a pure function of (stream length, chunks, overlap),
    and the stream's identity is already keyed via :func:`workload_id`
    — embedding them would force a trace parse at key time.
    """
    if chunks == 0:
        return "serial"
    overlap = "full" if chunk_overlap is None else str(chunk_overlap)
    return f"chunks={chunks}:overlap={overlap}"


def cache_key(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    mode: str = "sim",
    backend: str = "reference",
    chunks: int = 0,
    chunk_overlap: Optional[int] = None,
    interval: int = 0,
) -> str:
    """Stable cache key for one run (includes the result-schema version).

    The v3->v4 payload bump adds the execution backend: reference and
    fast results are byte-identical by contract, but keeping their
    entries distinct means a cached result always names the backend
    that actually produced it (and a backend bug can never satisfy the
    other backend's lookups).  The v4->v5 bump replaces the raw
    benchmark name with :func:`workload_id`, folding the content
    fingerprint of file-backed (``trace://``) workloads into every key.
    The v5->v6 bump adds the *resolved* kernel tier next to the
    requested backend: backend resolution is environment-dependent
    (``"fast"`` auto-upgrades to the vector kernels when numpy is
    importable), so the tier that actually executed must be part of
    the entry's identity for the same provenance reason.  The v6->v7
    bump embeds the chunk plan (count and overlap, ``serial`` when
    unchunked): chunked replay with a finite overlap is a sampled
    approximation, so toggling ``chunks`` must never serve a stale
    serial entry — or vice versa.  The v7->v8 bump embeds the tick
    period (``static`` when 0): a dynamic policy's behaviour is a
    function of the interval, so the same config at two intervals is
    two distinct runs (the policy's own parameters already ride in via
    ``config.key()``).
    """
    _validate_chunking(mode, chunks, chunk_overlap)
    _validate_interval(interval, chunks)
    payload = (
        f"{workload_id(benchmark)}|{config.key()}|{instructions}|{salt}|{mode}|{backend}"
        f"|{resolve_tier(backend, mode)}|{_chunk_token(chunks, chunk_overlap)}"
        f"|{_interval_token(interval)}|v8:{SCHEMA_VERSION}"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_disk(key: str) -> Optional[SimResult]:
    directory = _disk_cache_dir()
    if directory is None:
        return None
    path = directory / f"{key}.json"
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or tuple(sorted(data)) not in (
            _RESULT_FIELDS,
            _RESULT_FIELDS_WITH_DYNAMICS,
        ):
            return None  # stale or foreign schema: treat as a miss
        return SimResult.from_flat(data)
    except (OSError, ValueError, TypeError):
        return None


def _load_chunk_report(key: str) -> Optional[dict]:
    """Load a chunked run's error-bound report sidecar, if present."""
    directory = _disk_cache_dir()
    if directory is None:
        return None
    path = directory / f"{key}.chunk.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return data if isinstance(data, dict) else None
    except (OSError, ValueError):
        return None


def _store_chunk_report(key: str, report: dict) -> None:
    """Persist a chunked run's error-bound report next to its result.

    The report rides in a ``{key}.chunk.json`` sidecar rather than the
    flat result blob: ``to_flat()`` must stay byte-identical between
    chunked and serial runs (the acceptance contract), so the report
    can never be a flat field — but a cache hit must still surface it.
    """
    directory = _disk_cache_dir()
    if directory is None:
        return
    path = directory / f"{key}.chunk.json"
    tmp = path.with_name(
        f".tmp{os.getpid()}.{threading.get_native_id()}.{path.name}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        # caching is best-effort


def _store_disk(key: str, result: SimResult) -> None:
    directory = _disk_cache_dir()
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

    Synthetic benchmarks generate exactly ``instructions`` instructions.
    For a trace reference the file streams back instead: ``instructions``
    caps the replay length (``<= 0`` means the whole file), ``salt`` is
    ignored, and the memo key carries the file's content fingerprint so
    an edited file is re-ingested, never served from memory.

    When the workload's encoded-trace artifact is on disk, its header
    answers ``name`` and ``len()`` and its sections answer the
    fast/vector tiers, so nothing is generated or parsed up front: a
    synthetic benchmark comes back as a :class:`LazyTrace` that
    generates on first touch of its instructions (only the reference
    pipeline, and a sim run over a mem-only artifact, touch them), and
    a file's streaming trace knows its length without a counting pass.
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
    # encode pass and numpy views alias the mapped pages.
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
    capacity = _trace_cache_capacity()
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
    chunks: int = 0,
    chunk_overlap: Optional[int] = None,
    interval: int = 0,
) -> Optional[SimResult]:
    """Resolve one run against the caches; ``None`` means "must execute"."""
    key = cache_key(
        benchmark, config, instructions, salt, mode, backend, chunks,
        chunk_overlap, interval,
    )
    cached = _RESULT_CACHE.get(key)
    if cached is None:
        cached = _load_disk(key)
        if cached is not None:
            _RESULT_CACHE[key] = cached
    if (
        cached is not None
        and chunks > 0
        and getattr(cached, CHUNK_REPORT_ATTR, None) is None
    ):
        # A disk hit rebuilt the result from its flat blob, which never
        # carries the error-bound report — re-attach it from the sidecar.
        report = _load_chunk_report(key)
        if report is not None:
            setattr(cached, CHUNK_REPORT_ATTR, report)
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


def _stream_length(trace: Trace, tier: str) -> int:
    """Memory-op count of ``trace`` via the tier's own decode path.

    All tiers agree on the count, but going through the tier-matched
    memo (mem-op arrays for reference, the encoded stream otherwise)
    pre-builds exactly the state a forked chunk worker will inherit.
    """
    if tier == "reference":
        return len(trace_mem_ops(trace)[0])
    return len(encode_trace(trace))


def _execute_chunk(payload: Tuple) -> Tuple[int, int, int, int]:
    """Chunk-pool worker: replay one window, return its raw counters.

    Top-level (picklable) by construction.  The worker re-resolves the
    trace by name: under a ``fork`` start method it inherits the
    parent's trace/encode memos for free, and under ``spawn`` the
    re-generation/re-ingest is pure, so the replay is identical either
    way.
    """
    (benchmark, config, instructions, salt, tier,
     replay_start, count_start, end) = payload
    trace = get_trace(benchmark, instructions, salt)
    measured = _WINDOW_MEASURES[tier](
        trace,
        config.dcache.geometry(),
        config.replacement,
        replay_start=replay_start,
        count_start=count_start,
        end=end,
    )
    return (
        measured.accesses,
        measured.misses,
        measured.load_accesses,
        measured.load_misses,
    )


def _run_windows(
    benchmark: str,
    trace: Trace,
    config: SystemConfig,
    instructions: int,
    salt: int,
    tier: str,
    windows: List[Tuple[int, int, int]],
    chunk_jobs: int,
) -> List[MissRateResult]:
    """Replay every ``(replay_start, count_start, end)`` window.

    ``chunk_jobs > 1`` fans the windows out over a process pool — this
    is *within-run* parallelism, distinct from (and composable with)
    the sweep engine's per-run pool; the engine always drives its own
    workers with ``chunk_jobs=1`` so pools never nest.  Any pool
    failure falls back to in-process serial replay, mirroring the
    engine's own degradation contract.
    """
    jobs = max(1, min(chunk_jobs, len(windows)))
    if jobs > 1:
        if tier != "reference":
            # The encoded stream already exists (the chunk planner
            # measured it), so publishing is pure serialization: chunk
            # workers mmap this artifact instead of re-encoding — and
            # under spawn, instead of re-parsing the file.
            _publish_artifact(trace)
        payloads = [
            (benchmark, config, instructions, salt, tier,
             replay_start, count_start, end)
            for replay_start, count_start, end in windows
        ]
        try:
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
                counts = list(pool.map(_execute_chunk, payloads))
            return [MissRateResult(*part) for part in counts]
        except (OSError, BrokenProcessPool, PicklingError, ImportError):
            pass  # pool unavailable: degrade to serial chunk replay
    measure = _WINDOW_MEASURES[tier]
    return [
        measure(
            trace,
            config.dcache.geometry(),
            config.replacement,
            replay_start=replay_start,
            count_start=count_start,
            end=end,
        )
        for replay_start, count_start, end in windows
    ]


def _error_bound_report(
    trace: Trace,
    config: SystemConfig,
    tier: str,
    plan: ChunkPlan,
    warmup: int,
    parts: List[MissRateResult],
) -> dict:
    """Build the error-bound section attached to every chunked run.

    The merged counters are compared against a *serial golden* replay
    of a sampled prefix (the first one or two owned regions): the
    golden replays ``[0, sample_end)`` with the global warmup boundary,
    so under a full-prefix overlap the two agree exactly, and under a
    finite overlap the delta measures the warmup truncation error on
    real data rather than asserting a bound a priori.
    """
    report = dict(plan.to_document())
    report["warmup"] = warmup
    report["tier"] = tier
    report["exact"] = plan.overlap is None
    regions = plan.regions
    sampled = min(2, len(regions))
    if sampled == 0:
        report["sample"] = {
            "end": 0,
            "chunks_compared": 0,
            "accesses": 0,
            "misses_chunked": 0,
            "misses_serial": 0,
            "abs_miss_rate_error": 0.0,
        }
        return report
    sample_end = regions[sampled - 1].end
    chunked = merge_miss_rates(parts[:sampled])
    serial = _WINDOW_MEASURES[tier](
        trace,
        config.dcache.geometry(),
        config.replacement,
        replay_start=0,
        count_start=warmup,
        end=sample_end,
    )
    report["sample"] = {
        "end": sample_end,
        "chunks_compared": sampled,
        "accesses": serial.accesses,
        "misses_chunked": chunked.misses,
        "misses_serial": serial.misses,
        "abs_miss_rate_error": abs(chunked.miss_rate - serial.miss_rate),
    }
    return report


def _execute_chunked(
    benchmark: str,
    trace: Trace,
    config: SystemConfig,
    instructions: int,
    salt: int,
    tier: str,
    chunks: int,
    chunk_overlap: Optional[int],
    chunk_jobs: int,
) -> SimResult:
    """Chunk-parallel miss-rate replay with warmup-overlap merge.

    The stream's ``[0, n)`` mem-op positions split into ``chunks``
    owned regions; each replays from its warmup prefix through fresh
    cache state and counts only inside ``[max(start, W), end)`` where
    ``W`` is the *global* serial warmup boundary.  The owned count
    windows tile ``[W, n)`` exactly, so summing the per-chunk counters
    reproduces the serial counters — byte-identically when the overlap
    is the full prefix, approximately (and measured, see
    :func:`_error_bound_report`) for finite overlaps.
    """
    total = _stream_length(trace, tier)
    plan = plan_chunks(total, chunks, chunk_overlap)
    warmup = int(total * _WARMUP_FRACTION)
    windows = [
        (region.warmup_start, max(region.start, warmup), region.end)
        for region in plan.regions
    ]
    parts = _run_windows(
        benchmark, trace, config, instructions, salt, tier, windows, chunk_jobs
    )
    merged = merge_miss_rates(parts)
    result = _build_missrate_result(trace, config, merged)
    report = _error_bound_report(trace, config, tier, plan, warmup, parts)
    setattr(result, CHUNK_REPORT_ATTR, report)
    return result


def execute(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    mode: str = "sim",
    backend: str = "reference",
    chunks: int = 0,
    chunk_overlap: Optional[int] = None,
    chunk_jobs: int = 1,
    interval: int = 0,
) -> SimResult:
    """Run one point, bypassing all caches (worker-process safe)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
    _validate_chunking(mode, chunks, chunk_overlap)
    _validate_interval(interval, chunks)
    if mode == "sim":
        trace = get_trace(benchmark, instructions, salt)
        return Simulator(config, backend=backend, interval=interval).run(trace)
    if mode == "missrate":
        trace = get_trace(benchmark, instructions, salt)
        tier = resolve_tier(backend, mode)
        if chunks > 0:
            return _execute_chunked(
                benchmark, trace, config, instructions, salt, tier,
                chunks, chunk_overlap, chunk_jobs,
            )
        factory = _dynamic_policy_factory(config) if interval > 0 else None
        measured = _MISSRATE_MEASURES[tier](
            trace, config.dcache.geometry(), replacement=config.replacement,
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
    chunks: int = 0,
    chunk_overlap: Optional[int] = None,
    interval: int = 0,
) -> None:
    """Publish a result into the in-process and on-disk caches."""
    key = cache_key(
        benchmark, config, instructions, salt, mode, backend, chunks,
        chunk_overlap, interval,
    )
    _RESULT_CACHE[key] = result
    _store_disk(key, result)
    report = getattr(result, CHUNK_REPORT_ATTR, None)
    if report is not None:
        _store_chunk_report(key, report)


def run_benchmark(
    benchmark: str,
    config: SystemConfig,
    instructions: int,
    salt: int = 0,
    use_cache: bool = True,
    mode: str = "sim",
    backend: str = "reference",
    chunks: int = 0,
    chunk_overlap: Optional[int] = None,
    chunk_jobs: int = 1,
    interval: int = 0,
) -> SimResult:
    """Simulate ``benchmark`` under ``config``; memoized."""
    if use_cache:
        cached = load_cached(
            benchmark, config, instructions, salt, mode, backend,
            chunks, chunk_overlap, interval,
        )
        if cached is not None:
            return cached
    result = execute(
        benchmark, config, instructions, salt, mode, backend,
        chunks, chunk_overlap, chunk_jobs, interval,
    )
    if use_cache:
        store_result(
            benchmark, config, instructions, result, salt, mode, backend,
            chunks, chunk_overlap, interval,
        )
    # Persist whatever the run just encoded, independent of the result
    # caches (`use_cache=False` governs result reuse, not derived
    # state): the next process — pool worker, chunk worker, service
    # restart — maps it instead of re-encoding.  The reference tier
    # never encodes, so this is a no-op there.
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
        directory = _disk_cache_dir()
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

"""Encode-path bench: cold parse+encode vs warm-artifact restore.

The persistent artifact cache exists to amortize the expensive part of
every accelerated run's start-up: parsing the source trace and folding
it into :class:`~repro.workload.encode.EncodedTrace`'s flat arrays.
This bench measures exactly that window, per kernel tier, on the
committed sample trace (``benchmarks/data/bench_gcc_60k.csv.gz``,
60k deterministic ``gcc``-profile instructions):

* **cold** — artifacts disabled: gunzip + CSV parse + encoding passes,
  the price every fresh process used to pay;
* **warm** — the artifact is on disk and the process caches are
  dropped, simulating a new worker/process life: the mem stream comes
  off the mapped file (read in place by the numpy tier, restored with
  ``array.frombytes`` on the python tier) and each tier derives its
  block decode from it.

Both legs end with the same kernel-ready state (addrs, load flags,
block ids for the base geometry), and the bench asserts the streams
are byte-identical before trusting the clock.  The acceptance floor:
warm must be at least ``SPEEDUP_FLOOR``x faster than cold on the
python tier and on the numpy tier when available.

Run standalone to (re)write ``BENCH_encode.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_encode.py

or through pytest-benchmark like the other benches.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import pytest
from conftest import run_once

from repro.cache.geometry import CacheGeometry
from repro.fastsim.vector import block_array, numpy_available
from repro.sim import runner
from repro.workload.encode import encode_trace
from repro.workload.formats import make_trace_ref

#: Warm-artifact start-up must beat cold parse+encode by this factor.
SPEEDUP_FLOOR = 3.0

TRACE_FILE = Path(__file__).resolve().parent / "data" / "bench_gcc_60k.csv.gz"

#: The paper's base L1 geometry — the block decode every kernel needs.
GEOMETRY = CacheGeometry(16 * 1024, 4, 32)

_NO_ARTIFACTS_ENV = "REPRO_NO_ARTIFACTS"


def _materialize(encoded, tier: str) -> tuple:
    """Build the kernel-ready streams and return them for checksums."""
    if tier == "vector":
        blocks = block_array(encoded, GEOMETRY.fields)
        return (bytes(encoded.buffer("addrs")), bytes(encoded.buffer("is_load")),
                blocks.tobytes())
    addrs = encoded.addrs
    is_load = encoded.is_load
    blocks = encoded.blocks(GEOMETRY.fields)
    return addrs.tobytes(), is_load.tobytes(), tuple(blocks)


def _startup(ref: str, tier: str, artifacts: bool) -> tuple:
    """One process-life worth of start-up: trace -> kernel-ready."""
    runner.clear_caches()
    previous = os.environ.get(_NO_ARTIFACTS_ENV)
    if not artifacts:
        os.environ[_NO_ARTIFACTS_ENV] = "1"
    try:
        started = time.perf_counter()
        trace = runner.get_trace(ref, 0, 0)
        encoded = encode_trace(trace)
        streams = _materialize(encoded, tier)
        elapsed = time.perf_counter() - started
    finally:
        if not artifacts:
            if previous is None:
                del os.environ[_NO_ARTIFACTS_ENV]
            else:
                os.environ[_NO_ARTIFACTS_ENV] = previous
    return elapsed, streams


def _best_of(ref: str, tier: str, artifacts: bool, passes: int = 3):
    """Minimum of ``passes`` timings (scheduler-noise floor)."""
    best, streams = _startup(ref, tier, artifacts)
    for _ in range(passes - 1):
        elapsed, again = _startup(ref, tier, artifacts)
        assert again == streams, "non-deterministic streams"
        best = min(best, elapsed)
    return best, streams


def _measure_tier(tier: str) -> dict:
    ref = make_trace_ref(TRACE_FILE)
    cold_seconds, cold_streams = _best_of(ref, tier, artifacts=False)

    # Publish the artifact the way a miss-rate run does — the memory-op
    # stream only, since block decodes are never persisted — then time
    # fresh process-lives over it.
    runner.clear_caches()
    path = runner.ensure_artifact(ref, 0, mode="missrate")
    assert path is not None and path.exists()
    runner.reset_artifact_stats()
    warm_seconds, warm_streams = _best_of(ref, tier, artifacts=True)
    assert runner.artifact_stats()["loads"] >= 1, "warm leg never mapped"
    assert warm_streams == cold_streams, "artifact restore diverged"

    return {
        "tier": tier,
        "cold_seconds": round(cold_seconds, 5),
        "warm_seconds": round(warm_seconds, 5),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "byte_identical": True,  # asserted above
        "artifact_bytes": path.stat().st_size,
    }


def _environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
    }


def measure() -> dict:
    tiers = [_measure_tier("fast")]
    if numpy_available():
        tiers.append(_measure_tier("vector"))
    return {
        "bench": "encode-artifacts",
        "workload": {
            "trace": TRACE_FILE.name,
            "instructions": 60_000,
            "geometry": "16KB/4-way/32B",
        },
        "speedup_floor": SPEEDUP_FLOOR,
        "tiers": tiers,
        "environment": _environment(),
    }


def _check(entry: dict) -> bool:
    return entry["byte_identical"] and entry["speedup"] >= SPEEDUP_FLOOR


def test_encode_fast_tier_warm_artifact_floor(benchmark):
    """Python tier: warm-artifact start-up >= 3x faster than re-encode."""
    entry = run_once(benchmark, lambda: _measure_tier("fast"))
    print(f"\nencode fast: cold {entry['cold_seconds']:.4f}s "
          f"warm {entry['warm_seconds']:.4f}s "
          f"speedup {entry['speedup']:.1f}x")
    assert _check(entry)


def test_encode_vector_tier_warm_artifact_floor(benchmark):
    if not numpy_available():
        pytest.skip("numpy unavailable")
    entry = run_once(benchmark, lambda: _measure_tier("vector"))
    print(f"\nencode vector: cold {entry['cold_seconds']:.4f}s "
          f"warm {entry['warm_seconds']:.4f}s "
          f"speedup {entry['speedup']:.1f}x")
    assert _check(entry)


def main() -> int:
    record = measure()
    out = Path(__file__).resolve().parent.parent / "BENCH_encode.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    failed = [entry["tier"] for entry in record["tiers"] if not _check(entry)]
    if failed:
        print(f"FAIL: tiers below the {SPEEDUP_FLOOR}x floor: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The repository benchmark: cold/warm wall-clock, fidelity, layer split.

Run from the repository root::

    python3 perfbench/run.py --workload table5-sim --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --self-test

Workloads (``perfbench/workloads.py``): ``table5-sim``, ``dynamic-mixed``
and ``service-roundtrip``.  One run of a workload:

1. builds a hermetic environment: a private working directory under
   ``.perfbench_work/`` (removed at exit) holding every result cache,
   artifact directory, service database and report store, with every
   ``REPRO_*`` variable pinned;
2. *prepare* (untimed, fresh process): seeds the encoded-trace
   artifacts of the seeded workloads and re-runs a seed-chosen sample of
   points on the ``reference`` tier;
3. repeats *rounds* for ``--seconds`` (at least three): a fresh *cold*
   process imports the entry points and resolves every trace
   (``setup_s``), then executes the whole grid through a serial
   ``SweepEngine`` into an empty result cache (``run_s``, per-point
   latency from the engine's progress callback, ``peak_rss_mb``); three
   fresh *warm* processes resolve the same grid against the disk cache
   it filled (``warm_s``).  The service workload runs one process per
   round: server start, the client's closed loop of short jobs
   (per-point latency from the NDJSON run events), then identical
   resubmissions (``warm_s``) and a job of cache hits;
4. with ``--trace 1``, one more round runs traced (``tracer.py``) and
   its per-layer self times and counters become the metrics.

Timings are scaled to a nominal host (``hostclock.py``): short runs of
a fixed calibration kernel bracket every timed stretch (each point, each
service job, each process's start-up), which takes the shared host's
speed drift out of the numbers.  The report keeps the raw times.

:func:`end_to_end` documents how the rounds reduce to one number.

Correctness gate: a point fails if its result differs from the
``reference`` tier (sampled points), if the warm result differs from the
cold one, or if its digest changes between rounds.  ``failed`` counts
failed points; ``attempted`` counts the grid's points.

The last line of standard output is the result object; the line before
it is the full report: every metric, tail percentile and sample count,
``failed_frac``, ``paper_gap_pp`` with per-technique Table 5 deltas
(``table5-sim``), each round's raw timings and the environment block.  Reports and traced
spans are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostclock import REFERENCE_S, SPARSE_REPEATS, kernel_s, scale  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import TRACE_FILE, WORKLOADS, ServiceRoundtrip  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Rounds every run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Upper bound on rounds, however long ``--seconds`` is.
MAX_ROUNDS = 16
#: Warm processes per untimed round (one in the traced round).
WARM_PROCESSES = 3
#: One worker process may take at most this long.
WORKER_TIMEOUT_S = 60.0

#: End-to-end metrics reported on every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("warm_s", "s"),
    ("point_p50_ms", "ms"),
    ("point_tail_ms", "ms"),
    ("sim_kips", "kinstr/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced round: (name, unit).
PER_LAYER = (
    ("import.s", "s"), ("generator.s", "s"), ("generator.calls", "count"),
    ("formats.s", "s"), ("formats.instrs", "count"),
    ("artifact.load_s", "s"), ("artifact.loads", "count"),
    ("artifact.write_s", "s"), ("artifact.writes", "count"),
    ("artifact.hit_ratio", "ratio"),
    ("encode.s", "s"), ("encode.calls", "count"),
    ("vector.s", "s"), ("vector.points", "count"),
    ("missrate.s", "s"), ("missrate.points", "count"),
    ("core.s", "s"), ("core.ns_per_instr", "ns"),
    ("fallback.points", "count"), ("fallback.s", "s"),
    ("dynamic.ticks", "count"), ("dynamic.reconfigurations", "count"),
    ("energy.s", "s"),
    ("cache.load_s", "s"), ("cache.hits", "count"), ("cache.misses", "count"),
    ("cache.store_s", "s"), ("cache.stores", "count"),
    ("sweep.overhead_s", "s"), ("runner.s", "s"),
    ("service.queue_wait_s", "s"), ("service.overhead_s", "s"),
    ("service.requests", "count"), ("service.coalesced", "count"),
    ("trace.overhead_pct", "%"), ("traced.wall_s", "s"), ("unattributed.s", "s"),
)

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


class WorkerFailed(RuntimeError):
    """A benchmark process exited non-zero or timed out."""


# ------------------------------------------------------------------ #
# Processes and hermetic state
# ------------------------------------------------------------------ #


def hermetic_env(work: Path) -> Dict[str, str]:
    """The inherited environment with every ``REPRO_*`` variable pinned."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(work / "tmp"),
        "REPRO_JOBS": "1",
        "REPRO_SCALE": "1.0",
        "REPRO_BENCHMARKS": "",
        "REPRO_BACKEND": "fast",
        "REPRO_INTERVAL": "0",
        "REPRO_NO_VECTOR": "0",
        "REPRO_NO_ARTIFACTS": "0",
        "REPRO_DISK_CACHE": "1",
        "REPRO_TRACE_CACHE": "64",
        "REPRO_POLICY_MODULES": "",
    })
    return env


class Runner:
    """Starts worker processes for one workload run."""

    def __init__(self, workload: str, seed: int, scale: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.env = hermetic_env(work)
        self._serial = 0

    def spawn(self, phase: str, cache_dir: Path, trace: bool = False) -> dict:
        self._serial += 1
        out = self.work / f"{phase}-{self._serial}.json"
        state = self.work / f"state-{self._serial}"
        state.mkdir()
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_dir))
        config = {
            "phase": phase, "workload": self.workload, "seed": self.seed,
            "scale": self.scale, "trace": trace, "out": str(out),
            "state_dir": str(state), "kernel_s": kernel_s(SPARSE_REPEATS),
            "spawn": time.monotonic(),
        }
        try:
            completed = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(config)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as error:
            raise WorkerFailed(f"{phase} worker timed out after {error.timeout}s") from None
        if completed.returncode != 0:
            tail = completed.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise WorkerFailed(f"{phase} worker exited {completed.returncode}: "
                               + " | ".join(tail))
        result = json.loads(out.read_text(encoding="utf-8"))
        if trace:  # a traced process runs no kernel: bracket it from here
            result["kernel_before_s"] = config["kernel_s"]
            result["kernel_after_s"] = kernel_s(SPARSE_REPEATS)
        return result


def _fresh_cache(runner: Runner, seeded: Optional[Path], index: int) -> Path:
    """An empty result cache; seeded workloads keep their artifacts."""
    if seeded is None:
        path = runner.work / f"cache-{index}"
        path.mkdir()
        return path
    for entry in seeded.iterdir():
        if entry.is_file():  # result blobs; the artifacts/ subdirectory stays
            entry.unlink()
    return seeded


def _round(runner: Runner, service: bool, seeded: Optional[Path], index: int,
           trace: bool) -> Dict[str, dict]:
    cache = _fresh_cache(runner, seeded, index)
    warms = 0 if service else 1 if trace else WARM_PROCESSES
    cold = runner.spawn("cold", cache, trace)
    return {"cold": cold,
            "warms": [runner.spawn("warm", cache, trace) for _ in range(warms)]}


# ------------------------------------------------------------------ #
# Metrics
# ------------------------------------------------------------------ #


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(min_samples: int) -> float:
    """The highest percentile with at least 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if min_samples * (1.0 - pct / 100.0) >= 10:
            return pct
    return TAIL_LADDER[-1]


def gate(prepared: dict, rounds: List[dict], inject: bool) -> Tuple[int, List[str]]:
    """Correctness gate: (attempted points, sorted failed point labels)."""
    baseline = rounds[0]["cold"]["digests"]
    if inject:  # self-test: a corrupted warm digest must count as a failure
        warm = (rounds[-1]["warms"] or [rounds[-1]["cold"]])[0]
        label = sorted(warm["digests"])[0]
        warm["digests"][label] = "0" * 64
    failed = set()
    for label, digest in prepared["reference"].items():
        if baseline.get(label) != digest:
            failed.add(label)
    for record in rounds:
        for process in [record["cold"], *record["warms"]]:
            digests = process["digests"]
            for label in set(baseline) | set(digests):
                if digests.get(label) != baseline.get(label):
                    failed.add(label)
            failed.update(process.get("executed_points", ()))
        if record["cold"].get("service_failures"):
            failed.update(baseline)  # a broken service contract fails its jobs
    attempted = max(prepared["points"], len(baseline))
    return attempted, sorted(failed)


def end_to_end(rounds: List[dict]) -> Tuple[dict, dict]:
    """End-to-end metrics over the untraced rounds, plus details.

    Every timing is in nominal-host seconds (``hostclock.py``): the
    host's speed drifts by up to half again while a run lasts, and
    scaling each timed stretch by its bracketing calibration kernels
    takes most of that drift out.  ``setup_s``, ``run_s``, ``warm_s``
    and ``peak_rss_mb`` are medians over rounds (``warm_s`` over every
    warm process; service: each round's median resubmission).  Each
    point's latency is its median across rounds, the population
    ``point_p50_ms`` and ``point_tail_ms`` are taken over.  Every round's
    raw and scaled values go into the report.
    """
    colds = [record["cold"] for record in rounds]
    per_point = [statistics.median(samples)
                 for samples in zip(*(cold["latencies"] for cold in colds))]
    pct = tail_percentile(len(per_point))
    warm_processes = [warm for record in rounds for warm in record["warms"]] or colds
    detail = {
        key: [process[key] for process in processes]
        for processes, keys in ((colds, ("setup_s", "setup_raw_s", "run_s", "run_raw_s")),
                                (warm_processes, ("warm_s", "warm_raw_s")))
        for key in keys
    }
    run_s = statistics.median(detail["run_s"])
    metrics = {
        "setup_s": statistics.median(detail["setup_s"]),
        "run_s": run_s,
        "warm_s": statistics.median(detail["warm_s"]),
        "point_p50_ms": percentile(per_point, 50.0) * 1e3,
        "point_tail_ms": percentile(per_point, pct) * 1e3,
        "sim_kips": colds[0]["instructions"] / run_s / 1e3,
        "peak_rss_mb": statistics.median(cold["peak_rss_mb"] for cold in colds),
    }
    detail["kernel_median_ms"] = [cold["kernel_median_s"] * 1e3 for cold in colds]
    details = {
        "point_tail": {"percentile": pct, "samples": len(per_point),
                       "rounds_per_sample": len(colds)},
        "reference_kernel_ms": REFERENCE_S * 1e3,
        "rounds_detail": detail,
    }
    return metrics, details


def per_layer(traced: dict, untraced_run_s: float) -> Tuple[dict, dict]:
    """Per-layer metrics of the traced round, plus the additivity check."""
    processes = [traced["cold"], *traced["warms"]]
    layers: Counter = Counter(dict.fromkeys(LAYERS, 0.0))
    counts: Counter = Counter()
    for process in processes:
        layers.update(process["layers"])
        counts.update(process["counts"])
    wall = sum(process["wall_s"] for process in processes)
    resolutions = counts["generator.calls"] + counts["formats.refs"]
    cold = traced["cold"]
    traced_run_s = cold["run_raw_s"] * scale(cold["kernel_before_s"], cold["kernel_after_s"])
    service = cold.get("service", {})
    metrics = {
        "import.s": layers["import"],
        "generator.s": layers["generator"],
        "generator.calls": counts["generator.calls"],
        "formats.s": layers["formats"],
        "formats.instrs": counts["formats.instrs"],
        "artifact.load_s": layers["artifact.load"],
        "artifact.loads": counts["artifact.loads"],
        "artifact.write_s": layers["artifact.write"],
        "artifact.writes": counts["artifact.writes"],
        "artifact.hit_ratio": counts["artifact.loads"] / resolutions if resolutions else 0.0,
        "encode.s": layers["encode"],
        "encode.calls": counts["encode.calls"],
        "vector.s": layers["vector"],
        "vector.points": counts["vector.calls"] - counts["vector.fallbacks"],
        "missrate.s": layers["missrate"],
        "missrate.points": counts["missrate.calls"] + counts["vector.fallbacks"],
        "core.s": layers["core"],
        "core.ns_per_instr": (layers["core"] / counts["core.instrs"] * 1e9
                              if counts["core.instrs"] else 0.0),
        "fallback.points": counts["fallback.points"],
        "fallback.s": layers["fallback"],
        "dynamic.ticks": cold["dynamic_ticks"],
        "dynamic.reconfigurations": cold["dynamic_reconfigurations"],
        "energy.s": layers["energy"],
        "cache.load_s": layers["cache.load"],
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.store_s": layers["cache.store"],
        "cache.stores": counts["cache.stores"],
        "sweep.overhead_s": layers["sweep"],
        "runner.s": layers["runner"],
        "service.queue_wait_s": service.get("queue_wait_s", 0.0),
        "service.overhead_s": service.get("overhead_s", 0.0),
        "service.requests": counts["service.requests"],
        "service.coalesced": service.get("coalesced", 0),
        "trace.overhead_pct": (traced_run_s - untraced_run_s) / untraced_run_s * 100.0,
        "traced.wall_s": wall,
        "unattributed.s": wall - sum(layers.values()),
    }
    check = {
        "layers_self_s": layers,
        "sum_self_plus_unattributed_s": sum(layers.values()) + metrics["unattributed.s"],
        "traced_wall_s": wall,
    }
    return metrics, check


# ------------------------------------------------------------------ #
# One run
# ------------------------------------------------------------------ #


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    scale: float = 1.0, inject: bool = False, min_rounds: int = MIN_ROUNDS,
) -> Tuple[dict, dict]:
    """Run one workload; returns (result object, full report)."""
    workload = WORKLOADS[name](seed, scale)
    service = isinstance(workload, ServiceRoundtrip)
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(name, seed, scale, work)
        seeded = work / "seeded" if workload.cache == "seeded" else None
        prepare_cache = seeded if seeded is not None else work / "prepare-cache"
        prepare_cache.mkdir()
        prepared = runner.spawn("prepare", prepare_cache)
        rounds: List[dict] = []
        started = time.monotonic()
        while len(rounds) < MAX_ROUNDS:
            elapsed = time.monotonic() - started
            if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > seconds:
                break
            rounds.append(_round(runner, service, seeded, len(rounds), False))
        traced = _round(runner, service, seeded, len(rounds), True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    attempted, failed = gate(prepared, rounds + ([traced] if traced else []), inject)
    metrics, details = end_to_end(rounds)
    report = {
        "workload": name, "seed": seed, "cache": workload.cache,
        "rounds": len(rounds), "instructions": workload.instructions,
        "points": prepared["points"],
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in END_TO_END},
        "failed_frac": {"value": len(failed) / attempted, "unit": "ratio"},
        "failed_points": failed[:20],
        **details,
        "environment": {key: value for key, value in prepared["environment"].items()
                        if key != "tiers"},
    }
    extras = rounds[0]["cold"]["extras"]
    if "paper_gap_pp" in extras:
        report["metrics"]["paper_gap_pp"] = {"value": extras["paper_gap_pp"], "unit": "pp"}
        report["paper_deltas"] = extras["paper_deltas"]
    if service:
        report["service"] = {
            "cached_job_s": statistics.median(r["cold"]["cached_job_s"] for r in rounds),
            "service_failures": sorted({f for r in rounds for f in r["cold"]["service_failures"]}),
        }
    emitted = {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END}
    if traced is not None:
        # One traced round, scaled by the kernels around its process,
        # against the median untraced round.
        layer_metrics, check = per_layer(traced, metrics["run_s"])
        emitted = {key: {"value": int(layer_metrics[key]) if unit == "count"
                         else layer_metrics[key], "unit": unit}
                   for key, unit in PER_LAYER}
        report["per_layer"] = emitted
        report["layer_check"] = check
        report["facts"] = {
            key: {"expected": value, "traced": layer_metrics[key],
                  "confirmed": layer_metrics[key] == value}
            for key, value in workload.facts.items()
        }
        _write_out(f"{name}-spans.json", {
            "cold": traced["cold"]["spans"],
            "warm": [warm["spans"] for warm in traced["warms"]],
        })
    _write_out(f"{name}-seed{seed}-trace{int(trace)}.json",
               dict(report, tiers=prepared["environment"]["tiers"]))
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed), "metrics": emitted}
    return result, report


def _write_out(filename: str, document: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / filename).write_text(json.dumps(document, indent=1), encoding="utf-8")


# ------------------------------------------------------------------ #
# Self-test and entry point
# ------------------------------------------------------------------ #


def self_test() -> int:
    """Every workload at tiny scale emits every metric; an injected
    mismatch is counted as a failure."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"] for m in declared["end_to_end"]},
        True: {m["name"] for m in declared["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            result, report = run_workload(name, 1, 0.0, trace, scale=0.1, min_rounds=2)
            got = set(result["metrics"])
            if got != expected[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got ^ expected[trace])}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: failed {report['failed_points']}")
            if ("paper_gap_pp" in report["metrics"]) != (name == "table5-sim"):
                problems.append(f"{name}: paper_gap_pp placement")
            if trace:
                check = report["layer_check"]
                if abs(check["sum_self_plus_unattributed_s"] - check["traced_wall_s"]) > 1e-6:
                    problems.append(f"{name}: layer times do not sum to the traced wall")
            print(f"self-test {name} trace={int(trace)}: ok", file=sys.stderr)
    result, _report = run_workload("dynamic-mixed", 1, 0.0, False, scale=0.1,
                                   inject=True, min_rounds=2)
    if result["correct"] or result["failed"] < 1:
        problems.append("injected mismatch was not counted as a failure")
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"self_test": "failed" if problems else "passed",
                      "problems": problems}))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny scale and check the gate")
    args = parser.parse_args(argv)
    missing = [path for path in ("src/repro/__init__.py", TRACE_FILE)
               if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not a repository checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except WorkerFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

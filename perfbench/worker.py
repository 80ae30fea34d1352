"""One benchmark process: ``prepare``, ``cold`` or ``warm`` phase.

``run.py`` starts this script in a fresh interpreter for every phase so
that import, trace resolution and the result cache are all paid the way
a user's process pays them.  The single argument is a JSON object::

    {"phase": "cold", "workload": "table5-sim", "seed": 1, "scale": 1.0,
     "spawn": <time.monotonic() just before the parent started us>,
     "kernel_s": <the parent's calibration kernel time just before that>,
     "trace": false, "out": "<result file>", "state_dir": "<private dir>"}

``time.monotonic`` is system-wide on Linux, so ``spawn`` lets set-up
and warm times include interpreter start-up.  Every timing is returned
raw (``*_raw_s``) and scaled to the nominal host (``hostclock.py``);
the traced pass runs no calibration kernel, so there the two agree.
The result is written as JSON to ``out``; the process exits non-zero
if a phase raised.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

from hostclock import SPARSE_REPEATS, SegmentClock
from tracer import Tracer, install
from workloads import (
    WORKLOADS,
    ServiceRoundtrip,
    ServiceSession,
    point_label,
    result_digest,
)

class PointClock:
    """Sweep-engine progress callback: one clock segment per point.

    The segment that a point's callback closes is that point's latency.
    """

    def __init__(self, clock: SegmentClock) -> None:
        self.clock = clock
        self.points: List[int] = []
        self.executed: List[str] = []

    def __call__(self, done, total, run, cache_hit) -> None:
        self.points.append(self.clock.mark())
        if not cache_hit:
            self.executed.append(point_label(run))


def _results(workload) -> Dict[str, object]:
    """Digest every point of the grid from this process's result cache."""
    from repro.sim import runner

    digests: Dict[str, str] = {}
    instructions = ticks = reconfigurations = 0
    for run in workload.runs():
        result = runner.load_cached(
            run.benchmark, run.config, run.instructions, run.salt, run.mode,
            run.backend, interval=run.interval,
        )
        if result is None:
            continue  # a missing point fails the gate in the parent
        digests[point_label(run)] = result_digest(result)
        instructions += result.core.instructions
        ticks += result.dynamics.ticks
        reconfigurations += result.dynamics.reconfigurations
    return {
        "digests": digests,
        "instructions": instructions,
        "dynamic_ticks": ticks,
        "dynamic_reconfigurations": reconfigurations,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment(workload) -> Dict[str, object]:
    from repro.fastsim.vector import resolve_tier

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    tiers = {point_label(run): resolve_tier(run.backend, run.mode)
             for run in workload.runs()}
    histogram: Dict[str, int] = {}
    for tier in tiers.values():
        histogram[tier] = histogram.get(tier, 0) + 1
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "tier_counts": histogram,
        "tiers": tiers,
    }


def prepare(workload) -> Dict[str, object]:
    """Untimed: seed artifacts, run the reference sample, describe the host."""
    from repro.sim import runner

    if workload.cache == "seeded":
        for benchmark, instructions, salt in workload.traces():
            runner.ensure_artifact(benchmark, instructions, salt,
                                   mode=workload.artifact_mode)
    reference = {
        point_label(run): result_digest(runner.execute(
            run.benchmark, run.config, run.instructions, run.salt, run.mode,
            "reference", interval=run.interval,
        ))
        for run in workload.sample()
    }
    return {"reference": reference, "environment": _environment(workload),
            "points": len(workload.runs())}


def _process_clock(config: dict, spawn: float, repeats: int = 1) -> SegmentClock:
    """A clock whose first segment runs from the parent's spawn, so it
    covers interpreter start-up and imports."""
    return SegmentClock(not config["trace"], repeats=repeats, opened=spawn,
                        kernel_before=config["kernel_s"])


def _sums(segments: List[Tuple[float, float]]) -> Tuple[float, float]:
    """(scaled, raw) totals of ``segments``."""
    return sum(scaled for _raw, scaled in segments), sum(raw for raw, _scaled in segments)


def _resolve_traces(workload, clock: SegmentClock) -> None:
    """Set-up's trace resolution, one clock segment per trace."""
    from repro.sim import runner

    for benchmark, instructions, salt in workload.traces():
        runner.get_trace(benchmark, instructions, salt)
        clock.mark()


def cold(workload, spawn: float, state_dir: Path, config: dict) -> Dict[str, object]:
    """Set-up (traces resolved) then one execution of the whole grid."""
    from repro.sweep.engine import SweepEngine

    clock = _process_clock(config, spawn)
    _resolve_traces(workload, clock)
    setup_segments = clock.count
    points = PointClock(clock)
    extras = workload.execute(SweepEngine(jobs=1, progress=points))
    clock.mark()
    clock.finish()
    segments = clock.segments()
    setup_s, setup_raw_s = _sums(segments[:setup_segments])
    run_s, run_raw_s = _sums(segments[setup_segments:])
    return {
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "run_s": run_s, "run_raw_s": run_raw_s, "peak_rss_mb": _peak_rss_mb(),
        "latencies": [segments[index][1] for index in points.points],
        "kernel_median_s": statistics.median(clock.kernels() or [config["kernel_s"]]),
        "extras": extras,
    }


def warm(workload, spawn: float, state_dir: Path, config: dict) -> Dict[str, object]:
    """A fresh process resolving the same grid against the filled cache."""
    from repro.sweep.engine import SweepEngine

    clock = _process_clock(config, spawn)
    points = PointClock(clock)
    workload.execute(SweepEngine(jobs=1, progress=points))
    clock.mark()
    clock.finish()
    warm_s, warm_raw_s = _sums(clock.segments())
    return {"warm_s": warm_s, "warm_raw_s": warm_raw_s, "executed_points": points.executed}


def service(workload: ServiceRoundtrip, spawn: float, state_dir: Path,
            config: dict) -> Dict[str, object]:
    """Server start, the closed loop's new jobs, then the warm paths.

    The clock calibrates between jobs only: a kernel run while a job is
    in flight would compete with the server thread for the interpreter.
    """
    clock = _process_clock(config, spawn, repeats=SPARSE_REPEATS)
    _resolve_traces(workload, clock)
    session = ServiceSession(state_dir)
    try:
        clock.mark()
        setup_segments = clock.count
        job_latencies: List[List[float]] = []

        def on_event(event) -> None:
            if event.get("event") == "run":
                job_latencies[-1].append(event["seconds"])

        cold_jobs = []
        for request in workload.requests():
            job_latencies.append([])
            cold_jobs.append(session.roundtrip(request, on_event))
            clock.mark()
        clock.finish()
        peak = _peak_rss_mb()
        # Each resubmission is bracketed by kernel runs of its own.
        resubmits = []
        resubmit_clock = SegmentClock(clock.calibrate, repeats=SPARSE_REPEATS, every_s=0.0)
        resubmit_clock.start()
        for _ in range(workload.resubmissions):
            jobs = [session.roundtrip(request) for request in workload.requests()]
            resubmit_clock.mark()
            resubmits.append({"jobs": jobs})
        resubmit_clock.finish()
        cached = session.roundtrip(
            workload.sweep_request(benchmarks=workload.benchmarks[::-1]))
    finally:
        session.close()
    failures = []
    for index, job in enumerate(cold_jobs):
        if job["coalesced"]:
            failures.append(f"new job {index} coalesced")
        for attempt in resubmits:
            again = attempt["jobs"][index]
            if not again["coalesced"]:
                failures.append(f"resubmission of job {index} not coalesced")
            if again["report_digest"] != job["report_digest"]:
                failures.append(f"resubmission of job {index} changed its report")
    if cached["job"]["cache_hits"] != cached["job"]["runs_done"]:
        failures.append("cached job executed runs")
    queue_wait = sum(j["job"]["started"] - j["job"]["created"] for j in cold_jobs)
    engine_wall = sum(j["job"]["finished"] - j["job"]["started"] for j in cold_jobs)
    segments = clock.segments()
    setup_s, setup_raw_s = _sums(segments[:setup_segments])
    run_s, run_raw_s = _sums(segments[setup_segments:])
    resubmitted = resubmit_clock.segments()
    return {
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "run_s": run_s, "run_raw_s": run_raw_s, "peak_rss_mb": peak,
        "latencies": [seconds * scaled / raw
                      for (raw, scaled), job in zip(segments[setup_segments:], job_latencies)
                      for seconds in job],
        "kernel_median_s": statistics.median(clock.kernels() or [config["kernel_s"]]),
        "extras": {},
        "warm_s": statistics.median(scaled for _raw, scaled in resubmitted),
        "warm_raw_s": statistics.median(raw for raw, _scaled in resubmitted),
        "cached_job_s": cached["seconds"],
        "service_failures": sorted(set(failures)),
        "service": {
            "queue_wait_s": queue_wait,
            "overhead_s": sum(j["seconds"] for j in cold_jobs) - engine_wall,
            "coalesced": sum(j["coalesced"] for r in resubmits for j in r["jobs"]),
        },
    }


def main() -> int:
    config = json.loads(sys.argv[1])
    spawn = config["spawn"]
    tracer = Tracer() if config["trace"] else None
    workload = WORKLOADS[config["workload"]](config["seed"], config["scale"])
    with tracer.span("import", "import") if tracer else nullcontext():
        for module in workload.entry_modules:
            importlib.import_module(module)
    if tracer is not None:
        install(tracer)
    state_dir = Path(config["state_dir"])
    phase = config["phase"]
    if phase == "prepare":
        output = prepare(workload)
    else:
        measure = {"cold": service if isinstance(workload, ServiceRoundtrip) else cold,
                   "warm": warm}[phase]
        output = measure(workload, spawn, state_dir, config)
        output["wall_s"] = time.monotonic() - spawn
        if tracer is not None:
            output["layers"] = dict(tracer.self_s)
            output["counts"] = dict(tracer.counts)
            output["spans"] = list(tracer.spans)
        output.update(_results(workload))
    Path(config["out"]).write_text(json.dumps(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

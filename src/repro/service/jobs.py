"""Job execution: turn a parsed job spec into its report text.

This is the bridge between the service layer and the existing sweep
machinery.  A job executes through a plain
:class:`~repro.sweep.engine.SweepEngine` — ``jobs > 1`` fans out over
the engine's ``ProcessPoolExecutor`` worker tier — and every per-run
result lands in the schema-versioned disk cache as it completes
(published by the engine), so overlapping jobs and service shards
resolve each other's finished work.

Reports are *texts*, not objects: the exact byte sequence the CLI
prints for the same work (``repro-experiment sweep --json`` for sweep
jobs, ``repro-experiment IDS --json`` for experiment jobs).  That
equality is the service's correctness contract and is enforced by the
CI service-smoke job.

Progress flows through the engine's per-run callback
``(done, total, spec, cache_hit)``; :func:`execute_job` rewraps it as
:class:`RunProgress` records carrying cumulative counters and per-run
wall timings for the event stream.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import experiment_json
from repro.service.protocol import ExperimentJobSpec, JobSpec, SweepJobSpec
from repro.sweep.analyze import (
    design_space_document,
    design_space_points,
    design_space_spec,
)
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import RunSpec

__all__ = ["JobOutcome", "RunProgress", "execute_job"]


@dataclass(frozen=True)
class RunProgress:
    """One completed run, as the event stream sees it.

    Attributes:
        runs_done: cumulative completed runs across the whole job.
        sweep_done/sweep_total: progress within the current engine run
            (experiment jobs execute several sweeps, so the job-level
            total is not known upfront; sweep-level totals always are).
        cache_hits: cumulative cache-resolved runs across the job.
        spec: the run that completed.
        cache_hit: whether this run resolved from the caches.
        seconds: wall-clock since the previous completion (the per-run
            timing; cache hits resolve in microseconds).
    """

    runs_done: int
    sweep_done: int
    sweep_total: int
    cache_hits: int
    spec: RunSpec
    cache_hit: bool
    seconds: float


@dataclass(frozen=True)
class JobOutcome:
    """A finished job: the report text plus execution accounting."""

    text: str
    runs_done: int
    cache_hits: int
    wall_seconds: float


ProgressSink = Callable[[RunProgress], None]


class _Accumulator:
    """Adapts the engine's per-run callback into :class:`RunProgress`."""

    def __init__(self, sink: Optional[ProgressSink]) -> None:
        self.sink = sink
        self.runs_done = 0
        self.cache_hits = 0
        self._last = time.perf_counter()

    def __call__(self, done: int, total: int, spec: RunSpec, cache_hit: bool) -> None:
        now = time.perf_counter()
        seconds, self._last = now - self._last, now
        self.runs_done += 1
        self.cache_hits += 1 if cache_hit else 0
        if self.sink is not None:
            self.sink(
                RunProgress(
                    runs_done=self.runs_done,
                    sweep_done=done,
                    sweep_total=total,
                    cache_hits=self.cache_hits,
                    spec=spec,
                    cache_hit=cache_hit,
                    seconds=seconds,
                )
            )


def _execute_sweep(spec: SweepJobSpec, engine: SweepEngine) -> str:
    points = design_space_points(
        spec.sizes, spec.ways, spec.latencies, spec.policies, spec.baseline_policy
    )
    grid = design_space_spec(
        points, spec.benchmarks, spec.instructions, spec.salt,
        name="adhoc-sweep", backend=spec.backend, interval=spec.interval,
    )
    sweep = engine.run(grid)
    document = design_space_document(
        sweep, points, spec.benchmarks, spec.instructions, spec.component,
        spec.salt, backend=spec.backend, interval=spec.interval,
    )
    return json.dumps(document, indent=2, sort_keys=True)


def _execute_experiments(spec: ExperimentJobSpec, engine: SweepEngine) -> str:
    settings = ExperimentSettings(
        instructions=spec.instructions,
        benchmarks=spec.benchmarks,
        backend=spec.backend,
        interval=spec.interval,
    )
    documents = [
        experiment_json(experiment_id, settings, engine)
        for experiment_id in spec.experiments
    ]
    return json.dumps(documents, indent=2, sort_keys=True)


def execute_job(
    spec: JobSpec,
    jobs: int = 1,
    progress: Optional[ProgressSink] = None,
) -> JobOutcome:
    """Execute one job and return its report text plus accounting.

    Args:
        spec: a parsed job spec (:func:`repro.service.protocol.parse_job_request`).
        jobs: engine worker processes (the queue's worker tier drains
            into this ProcessPoolExecutor fan-out).
        progress: optional sink receiving a :class:`RunProgress` per
            completed run, cache hits included.

    Raises:
        Whatever the simulation raises — the service records it as the
        job's failure detail.
    """
    started = time.perf_counter()
    accumulate = _Accumulator(progress)
    # The accumulator is installed as the engine default so experiment
    # jobs report progress from every sweep an experiment runs.
    engine = SweepEngine(jobs=jobs, progress=accumulate)
    if isinstance(spec, SweepJobSpec):
        text = _execute_sweep(spec, engine)
    else:
        text = _execute_experiments(spec, engine)
    return JobOutcome(
        text=text,
        runs_done=accumulate.runs_done,
        cache_hits=accumulate.cache_hits,
        wall_seconds=time.perf_counter() - started,
    )

"""The sweep engine: resolve a spec against the caches, execute the rest.

Execution policy lives here and only here.  The engine:

1. resolves each run (specs arrive already de-duplicated) against the
   runner's in-process/on-disk caches (recorded as ``cache_hits``);
2. executes the misses — serially for ``jobs == 1`` (the deterministic
   in-process path tests rely on), or fanned out over a
   ``ProcessPoolExecutor`` for ``jobs > 1``;
3. publishes each fresh result into the caches from the parent process
   as it lands (single writer, so concurrent sweeps never race on disk,
   and completed work survives an interrupted sweep);
4. returns a :class:`~repro.sweep.result.SweepResult` keyed by spec.

Results are keyed by *what ran*, never by completion order, so the same
spec yields byte-identical exports at any job count.  If a process pool
cannot be created (restricted sandboxes, missing ``fork``), the engine
degrades to serial execution instead of failing.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Callable, List, Optional, Tuple

from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sweep.result import SweepResult, SweepStats
from repro.sweep.spec import RunSpec, SweepSpec

#: Payload shipped to worker processes (must stay picklable).
_Payload = Tuple[str, SystemConfig, int, int, str, str, int]


def _execute_payload(payload: _Payload) -> SimResult:
    """Worker entry point: execute one run with no cache side effects."""
    return runner.execute(*payload)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial).

    Raises:
        ValueError: ``REPRO_JOBS`` is not an integer >= 1; the message
            names the variable and its value.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


#: Per-completed-run callback: ``(done, total, spec, cache_hit)``.
#: ``done`` counts every resolved run — cache hits and executions alike —
#: monotonically up to ``total`` (the spec's unique run count), so a
#: subscriber can render "done/total" without knowing the cache state.
ProgressCallback = Callable[[int, int, RunSpec, bool], None]


class _ProgressReporter:
    """Monotonic done-counter shared by the hit/serial/pool paths."""

    def __init__(self, callback: Optional[ProgressCallback], total: int) -> None:
        self.callback = callback
        self.total = total
        self.done = 0

    def __call__(self, run: RunSpec, cache_hit: bool) -> None:
        self.done += 1
        if self.callback is not None:
            self.callback(self.done, self.total, run, cache_hit)


class SweepEngine:
    """Executes :class:`~repro.sweep.spec.SweepSpec` grids.

    Args:
        jobs: worker processes; 1 means deterministic in-process serial
            execution (no pool is ever created).
        use_cache: resolve against and publish to the runner caches.
        progress: optional default :data:`ProgressCallback`
            ``(done, total, spec, cache_hit)`` invoked as each run of a
            sweep completes — cache hits during resolution as well as
            executed runs as their results land.  The count rises
            monotonically to ``total`` even if the pool fails over to
            serial execution mid-sweep.  A callback passed to
            :meth:`run` overrides this default for that call.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.use_cache = use_cache
        self.progress = progress

    # -------------------------------------------------------------- #

    def run(
        self, spec: SweepSpec, progress: Optional[ProgressCallback] = None
    ) -> SweepResult:
        """Resolve and execute every run in ``spec``.

        Args:
            spec: the grid to resolve and execute.
            progress: per-call :data:`ProgressCallback` overriding the
                engine default (the sweep service streams per-run
                events through this hook).
        """
        started = time.perf_counter()
        unique: List[RunSpec] = list(spec.runs)  # SweepSpec already de-duplicates
        report = _ProgressReporter(
            progress if progress is not None else self.progress, len(unique)
        )
        result = SweepResult(spec=spec)
        pending: List[RunSpec] = []
        for run in unique:
            cached = (
                runner.load_cached(
                    run.benchmark, run.config, run.instructions, run.salt, run.mode,
                    run.backend, run.interval,
                )
                if self.use_cache
                else None
            )
            if cached is not None:
                result.results[run] = cached
                report(run, True)
            else:
                pending.append(run)

        for run, sim_result in self._execute(pending, report):
            result.results[run] = sim_result

        result.stats = SweepStats(
            unique=len(unique),
            cache_hits=len(unique) - len(pending),
            executed=len(pending),
            jobs=self.jobs,
            wall_seconds=time.perf_counter() - started,
        )
        return result

    def run_one(self, run: RunSpec) -> SimResult:
        """Convenience: execute a single spec through the same path."""
        sweep = self.run(SweepSpec(name=run.describe(), runs=(run,)))
        return sweep[run]

    # -------------------------------------------------------------- #

    def _store(self, run: RunSpec, sim_result: SimResult) -> None:
        """Publish one result immediately (results survive interruption)."""
        if self.use_cache:
            runner.store_result(
                run.benchmark, run.config, run.instructions, sim_result,
                run.salt, run.mode, run.backend, run.interval,
            )

    def _execute(
        self, pending: List[RunSpec], report: _ProgressReporter
    ) -> List[Tuple[RunSpec, SimResult]]:
        if not pending:
            return []
        done: List[Tuple[RunSpec, SimResult]] = []
        if self.jobs > 1 and len(pending) > 1:
            pool_done, pending = self._execute_pool(pending, report)
            done.extend(pool_done)
        done.extend(self._execute_serial(pending, report))
        return done

    def _execute_serial(
        self, pending: List[RunSpec], report: _ProgressReporter
    ) -> List[Tuple[RunSpec, SimResult]]:
        out: List[Tuple[RunSpec, SimResult]] = []
        for run in pending:
            sim_result = _execute_payload(
                (run.benchmark, run.config, run.instructions, run.salt, run.mode,
                 run.backend, run.interval)
            )
            self._store(run, sim_result)
            out.append((run, sim_result))
            report(run, False)
        return out

    def _execute_pool(
        self, pending: List[RunSpec], report: _ProgressReporter
    ) -> Tuple[List[Tuple[RunSpec, SimResult]], List[RunSpec]]:
        """Fan out over a process pool.

        Returns ``(completed, remaining)``: ``remaining`` is non-empty
        only when the pool infrastructure itself failed (fork
        unavailable, workers killed, unpicklable payload) — those runs
        fall back to serial execution without losing completed work.  A
        simulation error raised *inside* a worker propagates unchanged;
        results completed before it are already cached.
        """
        # Resolve every distinct trace once in the parent: forked workers
        # inherit the memo for free (copy-on-write), and a trace is shared
        # by every config that runs the same application.  Under spawn
        # (macOS/Windows) workers inherit nothing, so skip the serial
        # parent phase and let each worker build its own traces.
        fork = multiprocessing.get_start_method() == "fork"
        workload_runs: "dict" = {}
        for run in pending:
            workload_runs.setdefault(
                (run.benchmark, run.instructions, run.salt), []
            ).append(run)
        for (benchmark, instructions, salt), workload in workload_runs.items():
            if fork:
                runner.get_trace(benchmark, instructions, salt)
            # Publish the encoded-trace artifact before fanning out:
            # every worker — forked or spawned — then mmaps the one
            # on-disk encoding instead of re-encoding (or, for spawn,
            # re-parsing) privately.  The reference tier never encodes,
            # so reference-only workloads skip this.
            accelerated = [r for r in workload if r.backend != "reference"]
            if accelerated:
                runner.ensure_artifact(
                    benchmark, instructions, salt,
                    mode="sim" if any(r.mode == "sim" for r in accelerated)
                    else "missrate",
                )
        # Dispatch grouped by benchmark so that on spawn-based platforms
        # (no inherited memo) each worker still reuses its own traces.
        ordered = sorted(
            pending, key=lambda run: (run.benchmark, run.instructions, run.salt)
        )
        payloads: List[_Payload] = [
            (run.benchmark, run.config, run.instructions, run.salt, run.mode,
             run.backend, run.interval)
            for run in ordered
        ]
        # Chunks balance trace locality (same-benchmark specs cluster)
        # against load balancing (several chunks per worker).
        workers = min(self.jobs, len(pending))
        chunksize = max(1, len(ordered) // (workers * 4))
        out: List[Tuple[RunSpec, SimResult]] = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = pool.map(_execute_payload, payloads, chunksize=chunksize)
                for index, sim_result in enumerate(results):
                    self._store(ordered[index], sim_result)
                    out.append((ordered[index], sim_result))
                    report(ordered[index], False)
                return out, []
        except (OSError, BrokenProcessPool, PicklingError, ImportError):
            # Pool infrastructure failed (e.g. fork unavailable in a
            # restricted sandbox); hand the unfinished runs back.
            completed = {run for run, _ in out}
            return out, [run for run in ordered if run not in completed]


def default_engine() -> SweepEngine:
    """Engine honoring ``REPRO_JOBS`` — what experiments use when the
    caller does not supply one."""
    return SweepEngine(jobs=default_jobs())

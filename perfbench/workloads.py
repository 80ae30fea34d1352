"""The benchmark's workloads, driven only through public entry points.

Each workload names the grid of simulation points it computes (so the
correctness gate can digest every result), the traces it resolves
during set-up, whether its encoded-trace artifacts are seeded before
timing, and how one cold execution of the whole grid runs.  The seed
becomes the trace ``salt`` wherever the entry point accepts one.

Imports of ``repro`` happen inside functions: the worker times the
import itself as the ``import`` layer.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The committed external trace every trace-capable workload replays.
#: ``RunSpec`` rejects ``instructions=0`` ("whole file"), so every
#: ``trace://`` point carries the workload's explicit instruction cap.
TRACE_FILE = "benchmarks/data/bench_gcc_60k.csv.gz"
TRACE_REF = "trace://" + TRACE_FILE

def result_digest(result) -> str:
    """Content digest of one result's flat export."""
    flat = json.dumps(result.to_flat(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(flat.encode("utf-8")).hexdigest()


def point_label(run) -> str:
    """Backend-independent identity of one point (tiers must agree)."""
    config = hashlib.sha256(run.config.key().encode("utf-8")).hexdigest()[:12]
    return (f"{run.benchmark}|{run.mode}|{run.interval}|{config}"
            f"|{run.instructions}|{run.salt}")


class Workload:
    """One named set of inputs.

    Attributes:
        name: the workload name the benchmark is run with.
        cache: ``"seeded"`` (artifacts built in an untimed prepare
            step) or ``"empty"`` (every round starts from an empty cache
            directory).
        artifact_mode: ``ensure_artifact`` mode for seeded workloads.
        sample_size: points re-run on the ``reference`` tier.
        base_instructions: trace length at scale 1.
        entry_modules: what a user's process imports to run the workload.
        facts: per-layer values the traced pass is expected to show:
            traffic facts of the program as it stands, recorded so the
            traced report confirms (or refutes) them.
    """

    name = ""
    cache = "empty"
    artifact_mode: Optional[str] = None
    sample_size = 3
    base_instructions = 10_000
    entry_modules: Tuple[str, ...] = ("repro", "repro.api", "repro.sim.runner")
    facts: Dict[str, float] = {}

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.instructions = max(2_000, int(self.base_instructions * scale))

    def runs(self) -> list:
        """Every :class:`RunSpec` the workload computes, in grid order."""
        raise NotImplementedError

    def traces(self) -> List[Tuple[str, int, int]]:
        """Distinct ``(benchmark, instructions, salt)`` of :meth:`runs`."""
        return list(dict.fromkeys(
            (run.benchmark, run.instructions, run.salt) for run in self.runs()
        ))

    def sample(self) -> list:
        """The seed's fixed sample of points for the reference check."""
        runs = self.runs()
        return random.Random(self.seed).sample(runs, min(self.sample_size, len(runs)))

    def execute(self, engine) -> Dict[str, object]:
        """Run the whole grid through ``engine``; returns report extras."""
        raise NotImplementedError


class Table5Sim(Workload):
    """The full-sim Table 5 grid through ``table5.run``, artifacts seeded.

    ``table5.run`` takes no salt, so the seed only picks the reference
    sample: the grid and ``paper_gap_pp`` are the same for every seed.
    """

    name = "table5-sim"
    cache = "seeded"
    artifact_mode = "sim"
    base_instructions = 6_000
    entry_modules = Workload.entry_modules + ("repro.experiments.table5",)
    facts = {"fallback.points": 0, "vector.points": 0, "artifact.writes": 0,
             "artifact.hit_ratio": 1.0, "generator.calls": 11, "formats.instrs": 0}

    def settings(self):
        from repro.experiments.common import ExperimentSettings
        from repro.workload.profiles import benchmark_names

        return ExperimentSettings(
            instructions=self.instructions, benchmarks=tuple(benchmark_names()),
            backend="fast",
        )

    def runs(self) -> list:
        from repro.experiments import table5

        return list(table5.sweep_spec(self.settings()).runs)

    def execute(self, engine) -> Dict[str, object]:
        from repro.experiments import table5

        rows = table5.run(self.settings(), engine)
        return paper_gap(rows, table5.PAPER_SUMMARY)


def paper_gap(rows: Sequence, paper_summary: Sequence) -> Dict[str, object]:
    """Mean |model - paper| in percentage points over Table 5's numbers.

    The paper side comes from ``PAPER_SUMMARY`` itself (matched by
    technique label), not from the copies the rows carry.
    """
    by_label = {row.technique: row for row in rows}
    deltas: Dict[str, Dict[str, float]] = {}
    gaps: List[float] = []
    for label, _kind, paper_ed, paper_perf, _problem in paper_summary:
        row = by_label[label]
        ed = row.ed_savings_pct - paper_ed
        perf = row.perf_loss_pct - paper_perf
        deltas[label] = {"ed_savings_pp": ed, "perf_loss_pp": perf}
        gaps.extend((abs(ed), abs(perf)))
    return {"paper_gap_pp": sum(gaps) / len(gaps), "paper_deltas": deltas,
            "paper_numbers": len(gaps)}


class DynamicMixed(Workload):
    """``dri``/``levelpred`` beside the static baseline, empty caches."""

    name = "dynamic-mixed"
    base_instructions = 12_000
    entry_modules = Workload.entry_modules + ("repro.experiments.dynamic",)
    #: ``SweepEngine._execute_serial`` never publishes artifacts (only
    #: the pool path calls ``ensure_artifact``), so nothing is written.
    facts = {"artifact.writes": 0, "artifact.loads": 0}

    #: Miss-rate tick periods (accesses).
    intervals = (256, 1024)

    def settings(self):
        from repro.experiments.common import ExperimentSettings

        return ExperimentSettings(
            instructions=self.instructions,
            benchmarks=("gcc", "swim", "go", TRACE_REF), backend="fast",
        )

    def missrate_spec(self):
        from repro.experiments import dynamic
        from repro.sim.config import SystemConfig
        from repro.sweep.spec import RunSpec, SweepSpec
        from repro.workload.profiles import benchmark_names

        runs = tuple(
            RunSpec(benchmark, SystemConfig().with_dcache_policy(kind),
                    self.instructions, self.seed, "missrate", "fast",
                    interval=interval)
            for benchmark in benchmark_names()
            for kind in dynamic.DYNAMIC_KINDS
            for interval in self.intervals
        )
        return SweepSpec(name=f"{self.name}-missrate", runs=runs)

    def runs(self) -> list:
        from repro.experiments import dynamic

        return (list(dynamic.sweep_spec(self.settings()).runs)
                + list(self.missrate_spec().runs))

    def execute(self, engine) -> Dict[str, object]:
        from repro.experiments import dynamic

        dynamic.run(self.settings(), engine)
        engine.run(self.missrate_spec())
        return {}


class ServiceRoundtrip(Workload):
    """An embedded service, one closed-loop client, every cache empty.

    The seed orders the closed loop's sweep jobs and picks the reference
    sample; the traces keep one fixed salt.  At this trace length a
    salt moves a fast-core point's simulated cycles up to sixfold and
    shifts all four applications together, so seed-salted traces made
    the seeds' grids differ by +-15% in work, which is no property of
    the service.
    """

    name = "service-roundtrip"
    base_instructions = 6_000
    entry_modules = Workload.entry_modules + ("repro.service.app", "repro.service.client")
    #: The service runs its engine with ``engine_jobs=1``: the serial
    #: path, which publishes no artifacts.
    facts = {"artifact.writes": 0, "artifact.loads": 0}

    #: Identical resubmissions of the whole loop timed per round for
    #: ``warm_s``.
    resubmissions = 8

    #: Four applications, so the per-point latency mix does not hinge
    #: on how one trace happens to simulate.
    benchmarks = ("gcc", "swim", "go", "li")
    salt = 0
    #: D-cache sizes (KB) of the sweep grid.
    sizes = (8, 16)

    def sweep_request(self, benchmarks=benchmarks, sizes=sizes) -> dict:
        return {
            "kind": "sweep", "benchmarks": list(benchmarks), "sizes": list(sizes),
            "ways": [2, 4], "policies": ["seldm_waypred"],
            "instructions": self.instructions, "salt": self.salt,
            "backend": "fast",
        }

    def missrate_request(self) -> dict:
        return {
            "kind": "experiment", "experiments": ["table4"],
            "benchmarks": list(self.benchmarks),
            "instructions": self.instructions, "backend": "fast",
        }

    def requests(self) -> List[dict]:
        """The closed loop's new jobs, in submission order: one short
        sweep job per application and size (the client calibrates
        between jobs, so short jobs scale more exactly) in the seed's
        order, then the Table 4 job."""
        sweeps = [self.sweep_request(benchmarks=(benchmark,), sizes=(size,))
                  for benchmark in self.benchmarks for size in self.sizes]
        random.Random(self.seed).shuffle(sweeps)
        return sweeps + [self.missrate_request()]

    def runs(self) -> list:
        from repro.experiments import tables
        from repro.experiments.common import ExperimentSettings
        from repro.sweep.analyze import design_space_points, design_space_spec

        sweep = self.sweep_request()
        points = design_space_points(sweep["sizes"], sweep["ways"], (1,),
                                     sweep["policies"])
        grid = design_space_spec(points, sweep["benchmarks"], self.instructions,
                                 sweep["salt"], backend="fast")
        table4 = self.missrate_request()
        settings = ExperimentSettings(
            instructions=table4["instructions"],
            benchmarks=tuple(table4["benchmarks"]), backend="fast",
        )
        return list(grid.runs) + list(tables.sweep_spec(settings).runs)


class ServiceSession:
    """The service workload's server, client, and closed loop.

    One :class:`ServiceThread` (``engine_jobs=1``, ``workers=1``) over a
    private queue database, report store and run cache; one client that
    sends its next request only after the previous one completed.
    """

    def __init__(self, state_dir) -> None:
        from repro.service.app import ServiceConfig, ServiceThread
        from repro.service.client import ServiceClient

        self.handle = ServiceThread(ServiceConfig(
            port=0, db_path=state_dir / "jobs.sqlite",
            reports_dir=state_dir / "reports", engine_jobs=1, workers=1,
            rate=0.0,
        )).start()
        self.client = ServiceClient(port=self.handle.port, timeout=120.0)

    def close(self) -> None:
        self.handle.stop()

    def roundtrip(self, request: dict, on_event=None) -> Dict[str, object]:
        """Submit, follow the event stream, fetch the report."""
        started = time.perf_counter()
        submitted = self.client.submit(request)
        job_id = submitted["job"]["id"]
        final = self.client.wait(job_id, on_event=on_event, timeout=150.0)
        if final["state"] != "done":
            raise RuntimeError(f"job {job_id} ended {final['state']}: {final.get('error')}")
        text = self.client.report_text(job_id)
        return {
            "seconds": time.perf_counter() - started,
            "coalesced": bool(submitted["coalesced"]),
            "job": final,
            "report_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (Table5Sim, DynamicMixed, ServiceRoundtrip)
}

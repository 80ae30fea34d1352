"""Sweep results: a keyed store of SimResults plus export helpers.

A :class:`SweepResult` is what a :class:`~repro.sweep.engine.SweepEngine`
returns: every run of the sweep's spec mapped to its
:class:`~repro.sim.results.SimResult`, with execution accounting in
:class:`SweepStats`.  Lookups are by spec (not completion order), so a
sweep's rendering is identical however its runs were scheduled — the
property the ``--jobs N`` byte-identical guarantee rests on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sweep.spec import RunSpec, SweepSpec
from repro.utils.text import format_table


@dataclass
class SweepStats:
    """Execution accounting for one engine run.

    Attributes:
        unique: distinct runs in the spec (specs de-duplicate on
            construction, so this is simply its length).
        cache_hits: runs resolved from the in-process/on-disk caches.
        executed: runs actually simulated.
        jobs: worker count the engine ran with.
        wall_seconds: elapsed wall-clock for the engine run.
    """

    unique: int = 0
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0

    def describe(self) -> str:
        """One-line accounting summary."""
        return (
            f"{self.unique} runs: "
            f"{self.cache_hits} cached, {self.executed} executed "
            f"with jobs={self.jobs} in {self.wall_seconds:.1f}s"
        )


@dataclass
class SweepResult:
    """All results of one sweep, addressable by spec."""

    spec: SweepSpec
    results: Dict[RunSpec, SimResult] = field(default_factory=dict)
    stats: SweepStats = field(default_factory=SweepStats)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple[RunSpec, SimResult]]:
        for run in self.spec:
            yield run, self.results[run]

    def __getitem__(self, run: RunSpec) -> SimResult:
        try:
            return self.results[run]
        except KeyError:
            raise KeyError(f"run not in sweep {self.spec.name!r}: {run.describe()}") from None

    def get(
        self,
        benchmark: str,
        config: SystemConfig,
        instructions: int,
        salt: int = 0,
        mode: str = "sim",
        backend: str = "reference",
        interval: int = 0,
    ) -> SimResult:
        """Look up one result by its run coordinates."""
        return self[
            RunSpec(benchmark, config, instructions, salt, mode, backend, interval)
        ]

    def pair(
        self,
        benchmark: str,
        technique: SystemConfig,
        baseline: SystemConfig,
        instructions: int,
        salt: int = 0,
        backend: str = "reference",
        interval: int = 0,
    ) -> Tuple[SimResult, SimResult]:
        """The (technique, baseline) results the paper's relative metrics need."""
        return (
            self.get(benchmark, technique, instructions, salt,
                     backend=backend, interval=interval),
            self.get(benchmark, baseline, instructions, salt,
                     backend=backend, interval=interval),
        )

    # -------------------------------------------------------------- #
    # Export
    # -------------------------------------------------------------- #

    def to_rows(self) -> List[Dict[str, object]]:
        """Flat per-run records (spec coordinates + headline metrics)."""
        rows: List[Dict[str, object]] = []
        for run, result in self:
            rows.append(
                {
                    "benchmark": run.benchmark,
                    "config": run.config.describe(),
                    "instructions": run.instructions,
                    "salt": run.salt,
                    "mode": run.mode,
                    "backend": run.backend,
                    "cycles": result.core.cycles,
                    "ipc": round(result.core.ipc, 6),
                    "dcache_miss_rate": round(result.dcache.miss_rate, 6),
                    "icache_miss_rate": round(result.icache.miss_rate, 6),
                    "dcache_energy": round(result.energy.dcache, 6),
                    "icache_energy": round(result.energy.icache, 6),
                    "processor_energy": round(result.energy.processor_total, 6),
                }
            )
        return rows

    def to_json(self, indent: int = 2) -> str:
        """Deterministic JSON document: the spec plus every full result,
        serialized in the structured nested-section schema.

        Execution accounting (``stats``) is deliberately excluded — it
        varies with cache warmth and job count, and the export must be
        byte-identical for identical specs however they were run.
        """
        runs = []
        for run, result in self:
            runs.append(
                {
                    "benchmark": run.benchmark,
                    "config_key": run.config.key(),
                    "config": run.config.describe(),
                    "instructions": run.instructions,
                    "salt": run.salt,
                    "mode": run.mode,
                    "backend": run.backend,
                    "result": asdict(result),
                }
            )
        return json.dumps({"sweep": self.spec.name, "runs": runs}, indent=indent,
                          sort_keys=True)

    def to_table(self, title: Optional[str] = None) -> str:
        """ASCII table of the headline metrics."""
        rows = self.to_rows()
        headers = ["benchmark", "config", "ipc", "d-miss%", "i-miss%", "E(dcache)"]
        cells = [
            [
                str(r["benchmark"]),
                str(r["config"]),
                f"{r['ipc']:.3f}",
                f"{float(r['dcache_miss_rate']) * 100:.2f}",
                f"{float(r['icache_miss_rate']) * 100:.2f}",
                f"{float(r['dcache_energy']):.1f}",
            ]
            for r in rows
        ]
        return format_table(headers, cells, title or f"Sweep: {self.spec.name}")

"""Declarative run descriptions: what to simulate, not how.

A :class:`RunSpec` names one simulation point — (benchmark, config,
instructions, salt, mode) — and a :class:`SweepSpec` names a grid of
them.  Specs carry no execution policy: the same spec resolves against
the caches, runs serially, or fans out over a process pool depending
only on the :class:`~repro.sweep.engine.SweepEngine` it is handed to,
which is what makes every experiment's grid trivially parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.runner import BACKENDS, RUN_MODES


@dataclass(frozen=True)
class RunSpec:
    """One simulation point.

    Attributes:
        benchmark: application name (see ``repro.workload.profiles``).
        config: full system configuration.
        instructions: dynamic instruction count of the trace.
        salt: trace-generation salt (distinct salts = distinct traces).
        mode: ``"sim"`` for the full out-of-order simulation or
            ``"missrate"`` for the functional hit/miss model (Table 4).
        backend: ``"reference"`` or ``"fast"`` (the batched backend).
            Results are byte-identical — the backends trade
            introspectability for speed.
        interval: tick period for dynamic policies (accesses in
            miss-rate mode, cycles in sim mode); ``0`` = no ticks.
    """

    benchmark: str
    config: SystemConfig
    instructions: int
    salt: int = 0
    mode: str = "sim"
    backend: str = "reference"
    interval: int = 0

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(f"unknown run mode {self.mode!r}; valid: {RUN_MODES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; valid: {BACKENDS}")
        if self.instructions <= 0:
            raise ValueError(f"instructions must be positive, got {self.instructions}")
        runner._validate_interval(self.interval)

    def key(self) -> str:
        """The backend cache key this spec resolves to."""
        return runner.cache_key(
            self.benchmark, self.config, self.instructions, self.salt, self.mode,
            self.backend, self.interval,
        )

    def describe(self) -> str:
        """One-line human description."""
        suffix = "" if self.mode == "sim" else f" ({self.mode})"
        if self.backend != "reference":
            suffix += f" [{self.backend}]"
        if self.interval > 0:
            suffix += f" [interval={self.interval}]"
        return (
            f"{self.benchmark} x {self.config.describe()} "
            f"@ {self.instructions}i/s{self.salt}{suffix}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered, de-duplicated grid of runs.

    Build directly from runs, combine with ``merged``, or expand a
    cartesian product with :meth:`from_grid`.  Duplicate specs are
    dropped on construction (first occurrence wins) so experiments can
    declare overlapping grids — e.g. every figure naming the same
    parallel baseline — without paying for the overlap.
    """

    name: str
    runs: Tuple[RunSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.runs))
        if deduped != tuple(self.runs):
            object.__setattr__(self, "runs", deduped)
        else:
            object.__setattr__(self, "runs", tuple(self.runs))

    @classmethod
    def from_grid(
        cls,
        name: str,
        benchmarks: Sequence[str],
        configs: Sequence[SystemConfig],
        instructions: int,
        salts: Sequence[int] = (0,),
        mode: str = "sim",
        backend: str = "reference",
        interval: int = 0,
    ) -> "SweepSpec":
        """Cartesian product benchmarks x configs x salts."""
        runs = tuple(
            RunSpec(benchmark, config, instructions, salt, mode, backend, interval)
            for benchmark in benchmarks
            for config in configs
            for salt in salts
        )
        return cls(name=name, runs=runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

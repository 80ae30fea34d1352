"""Shared experiment plumbing: settings, row types, and ASCII rendering."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from repro.sim.results import SimResult
from repro.utils.statsutil import arithmetic_mean
from repro.utils.text import format_bar, format_table
from repro.workload.profiles import benchmark_names

# ``format_table``/``format_bar`` live in ``repro.utils.text`` (the sweep
# layer renders too); re-exported here for the experiment modules.
__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "ExperimentSettings",
    "MetricRow",
    "benchmark_list",
    "format_bar",
    "format_table",
    "kind_breakdown",
    "mean_row",
    "settings_from_env",
]

#: Default dynamic instructions per run; scaled by ``REPRO_SCALE``.
DEFAULT_INSTRUCTIONS = 60_000


@dataclass(frozen=True)
class ExperimentSettings:
    """Run-size knobs common to every experiment.

    Attributes:
        instructions: trace length per (benchmark, config) run.
        benchmarks: which applications to include (paper order).
        backend: simulation backend every run uses (``"reference"`` or
            the batched ``"fast"`` backend; reports are identical by the
            backends' equivalence contract).
        interval: tick period for dynamic policies (``0`` = each
            experiment's own default).  Only experiments that run
            dynamic policies (``dynamic``) consume it.
    """

    instructions: int = DEFAULT_INSTRUCTIONS
    benchmarks: Sequence[str] = field(default_factory=lambda: benchmark_names())
    backend: str = "reference"
    interval: int = 0


def settings_from_env() -> ExperimentSettings:
    """Build settings honoring ``REPRO_SCALE``, ``REPRO_BENCHMARKS``,
    ``REPRO_BACKEND``, and ``REPRO_INTERVAL``.

    ``REPRO_SCALE=2.0`` doubles trace lengths; ``REPRO_BENCHMARKS`` is a
    comma-separated subset of application names; ``REPRO_BACKEND=fast``
    selects the batched backend; ``REPRO_INTERVAL=N`` sets the dynamic
    policy tick period (the CLI's ``--backend``/``--interval``
    override them).

    Raises:
        ValueError: ``REPRO_SCALE`` is not a finite number > 0, or
            ``REPRO_INTERVAL`` is not an integer >= 0; the message
            names the variable and its value.
    """
    raw_scale = os.environ.get("REPRO_SCALE", "1.0")
    try:
        scale = float(raw_scale)
    except ValueError:
        scale = math.nan
    if not 0.0 < scale < math.inf:
        raise ValueError(f"REPRO_SCALE must be a number > 0, got {raw_scale!r}")
    instructions = max(2_000, int(DEFAULT_INSTRUCTIONS * scale))
    raw = os.environ.get("REPRO_BENCHMARKS", "")
    benchmarks = tuple(name for name in raw.split(",") if name) or benchmark_names()
    backend = os.environ.get("REPRO_BACKEND", "reference")
    raw_interval = os.environ.get("REPRO_INTERVAL", "0")
    try:
        interval = int(raw_interval)
    except ValueError:
        interval = -1
    if interval < 0:
        raise ValueError(
            f"REPRO_INTERVAL must be an integer >= 0, got {raw_interval!r}"
        )
    return ExperimentSettings(
        instructions=instructions, benchmarks=benchmarks, backend=backend,
        interval=interval,
    )


def benchmark_list(settings: Optional[ExperimentSettings] = None) -> Sequence[str]:
    """The applications an experiment iterates over."""
    return (settings or settings_from_env()).benchmarks


@dataclass
class MetricRow:
    """One application's relative metrics for one technique."""

    benchmark: str
    technique: str
    relative_energy_delay: float
    performance_degradation: float
    extras: Dict[str, float] = field(default_factory=dict)


def mean_row(rows: Iterable[MetricRow], technique: str) -> MetricRow:
    """Arithmetic-mean row across applications (the paper's averages)."""
    rows = list(rows)
    extras: Dict[str, float] = {}
    if rows and rows[0].extras:
        for key in rows[0].extras:
            extras[key] = arithmetic_mean(r.extras.get(key, 0.0) for r in rows)
    return MetricRow(
        benchmark="MEAN",
        technique=technique,
        relative_energy_delay=arithmetic_mean(r.relative_energy_delay for r in rows),
        performance_degradation=arithmetic_mean(r.performance_degradation for r in rows),
        extras=extras,
    )


def kind_breakdown(result: SimResult, kinds: Sequence[str], icache: bool = False) -> Dict[str, float]:
    """Normalized access-kind fractions for the breakdown plots."""
    source = (result.icache if icache else result.dcache).kinds
    total = sum(source.values()) or 1
    return {kind: source.get(kind, 0) / total for kind in kinds}

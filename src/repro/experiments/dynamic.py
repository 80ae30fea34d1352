"""Static-vs-adaptive comparison: the phase-aware dynamic policies.

The paper's techniques are static per run; the ``dynamic`` experiment
exercises the interval-tick hook (:mod:`repro.core.interval`) end to
end: the same workloads run once with the static parallel baseline and
once per dynamic policy family — ``dri`` (miss-rate-threshold set
resizing) and ``levelpred`` (L1-bypass level prediction) — ticked every
``interval`` cycles.  The report is the static-vs-adaptive energy and
miss-rate comparison, with the tick activity (reconfigurations, bypass
toggles, final capacity) alongside.

Workloads come from ``settings.benchmarks`` and may be ``trace://``
refs, so the experiment renders over ingested trace files exactly as
over the synthetic applications::

    repro-experiment dynamic --interval 256 --json
    REPRO_BENCHMARKS=trace://traces/app.din repro-experiment dynamic

Reports are byte-identical across backends (and across the CLI and the
sweep service) by the fast backend's equivalence contract: the fast
d-cache engine drives the dynamic policy objects through its adapter
kernel and replays every flush and bypass as the reference engine does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    ExperimentSettings,
    format_table,
    settings_from_env,
)
from repro.sim.config import SystemConfig
from repro.sim.results import (
    SimResult,
    performance_degradation,
    relative_energy_delay,
)
from repro.sweep.engine import SweepEngine, default_engine
from repro.sweep.result import SweepResult
from repro.sweep.spec import RunSpec, SweepSpec
from repro.utils.statsutil import arithmetic_mean

#: Tick period when ``settings.interval`` leaves it unset.
DEFAULT_INTERVAL = 4096

#: The dynamic policy families this experiment proves, in table order.
DYNAMIC_KINDS: Tuple[str, ...] = ("dri", "levelpred")


@dataclass
class DynamicRow:
    """One (workload, technique) comparison against the static baseline.

    ``ticks``/``reconfigurations``/``bypass_toggles`` are zero for the
    static technique by construction; ``final_size_kb`` is the d-cache
    capacity the run ended with (the starting capacity unless a
    resizing action fired).
    """

    benchmark: str
    technique: str
    interval: int
    relative_energy_delay: float
    performance_degradation: float
    miss_rate_pct: float
    ticks: int
    reconfigurations: int
    bypass_toggles: int
    final_size_kb: float


def effective_interval(settings: Optional[ExperimentSettings] = None) -> int:
    """The tick period this experiment runs with."""
    settings = settings or settings_from_env()
    return settings.interval if settings.interval > 0 else DEFAULT_INTERVAL


def techniques() -> List[Tuple[str, SystemConfig]]:
    """(label, config) per table column: the baseline, then each family."""
    baseline = SystemConfig()
    entries: List[Tuple[str, SystemConfig]] = [("static", baseline)]
    for kind in DYNAMIC_KINDS:
        entries.append((kind, baseline.with_dcache_policy(kind)))
    return entries


def _runs(settings: ExperimentSettings) -> List[RunSpec]:
    """The grid: static runs untick'd, dynamic runs at the interval."""
    interval = effective_interval(settings)
    runs: List[RunSpec] = []
    for benchmark in settings.benchmarks:
        for label, config in techniques():
            runs.append(
                RunSpec(
                    benchmark, config, settings.instructions,
                    backend=settings.backend,
                    interval=0 if label == "static" else interval,
                )
            )
    return runs


def sweep_spec(settings: Optional[ExperimentSettings] = None) -> SweepSpec:
    """The experiment's full run grid."""
    settings = settings or settings_from_env()
    return SweepSpec(name="dynamic", runs=tuple(_runs(settings)))


def _row(
    benchmark: str,
    label: str,
    interval: int,
    result: SimResult,
    baseline: SimResult,
) -> DynamicRow:
    dynamics = result.dynamics
    return DynamicRow(
        benchmark=benchmark,
        technique=label,
        interval=interval,
        relative_energy_delay=relative_energy_delay(result, baseline, "dcache"),
        performance_degradation=performance_degradation(result, baseline),
        miss_rate_pct=result.dcache.miss_rate * 100,
        ticks=dynamics.ticks,
        reconfigurations=dynamics.reconfigurations,
        bypass_toggles=dynamics.bypass_toggles,
        final_size_kb=dynamics.final_size_bytes / 1024.0,
    )


def run(
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> List[DynamicRow]:
    """Execute the grid and reduce to comparison rows (+ MEAN rows)."""
    settings = settings or settings_from_env()
    engine = engine or default_engine()
    sweep: SweepResult = engine.run(sweep_spec(settings))
    interval = effective_interval(settings)
    entries = techniques()
    static_label, static_config = entries[0]
    per_technique: Dict[str, List[DynamicRow]] = {label: [] for label, _ in entries}
    for benchmark in settings.benchmarks:
        baseline = sweep.get(
            benchmark, static_config, settings.instructions,
            backend=settings.backend, interval=0,
        )
        for label, config in entries:
            result = sweep.get(
                benchmark, config, settings.instructions,
                backend=settings.backend,
                interval=0 if label == static_label else interval,
            )
            per_technique[label].append(
                _row(benchmark, label, 0 if label == static_label else interval,
                     result, baseline)
            )
    rows: List[DynamicRow] = []
    for label, technique_rows in per_technique.items():
        rows.extend(technique_rows)
        rows.append(_mean_row(technique_rows, label))
    return rows


def _mean_row(rows: Sequence[DynamicRow], label: str) -> DynamicRow:
    """Arithmetic-mean row across workloads for one technique."""
    return DynamicRow(
        benchmark="MEAN",
        technique=label,
        interval=rows[0].interval if rows else 0,
        relative_energy_delay=arithmetic_mean(
            r.relative_energy_delay for r in rows),
        performance_degradation=arithmetic_mean(
            r.performance_degradation for r in rows),
        miss_rate_pct=arithmetic_mean(r.miss_rate_pct for r in rows),
        ticks=sum(r.ticks for r in rows),
        reconfigurations=sum(r.reconfigurations for r in rows),
        bypass_toggles=sum(r.bypass_toggles for r in rows),
        final_size_kb=arithmetic_mean(r.final_size_kb for r in rows),
    )


def render(
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> str:
    """ASCII static-vs-adaptive comparison table."""
    settings = settings or settings_from_env()
    rows = run(settings, engine)
    cells = [
        [
            row.benchmark,
            row.technique,
            str(row.interval) if row.interval else "-",
            f"{row.relative_energy_delay:.3f}",
            f"{row.performance_degradation * 100:+.1f}",
            f"{row.miss_rate_pct:.2f}",
            str(row.ticks),
            str(row.reconfigurations),
            str(row.bypass_toggles),
            f"{row.final_size_kb:.0f}" if row.final_size_kb else "-",
        ]
        for row in rows
    ]
    return format_table(
        ["benchmark", "technique", "interval", "E-D", "perf%", "miss%",
         "ticks", "reconfig", "bypass", "KB@end"],
        cells,
        f"Dynamic policies: static vs adaptive "
        f"(interval={effective_interval(settings)} cycles)",
    )

"""Shared comparison driver used by every figure (4-11) and Table 5.

Experiments *declare* their grids as :class:`Comparison` triples —
(label, technique config, baseline config) — which expand to a
:class:`~repro.sweep.spec.SweepSpec` and reduce from an executed
:class:`~repro.sweep.result.SweepResult` into the familiar
``Dict[label, List[MetricRow]]`` shape.  All scheduling (parallelism,
caching, accounting) happens inside the engine, so every experiment
gains ``--jobs`` for free and renders byte-identically at any job
count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.kinds import DCACHE_KINDS, ICACHE_KINDS
from repro.experiments.common import (
    ExperimentSettings,
    MetricRow,
    format_table,
    kind_breakdown,
    mean_row,
    settings_from_env,
)
from repro.sim.config import SystemConfig
from repro.sim.results import (
    SimResult,
    performance_degradation,
    relative_energy,
    relative_energy_delay,
)
from repro.sweep.engine import SweepEngine, default_engine
from repro.sweep.result import SweepResult
from repro.sweep.spec import SweepSpec

#: One comparison: (label, technique config, baseline config).
Comparison = Tuple[str, SystemConfig, SystemConfig]


def comparison_spec(
    comparisons: Sequence[Comparison],
    settings: Optional[ExperimentSettings] = None,
    name: str = "comparison",
) -> SweepSpec:
    """Declare the grid covering every comparison's two configs.

    Shared baselines across comparisons de-duplicate inside the spec, so
    e.g. Figure 6's five techniques against one parallel baseline cost
    six configurations per application, not ten.
    """
    settings = settings or settings_from_env()
    configs: List[SystemConfig] = []
    for _label, technique, baseline in comparisons:
        configs.append(baseline)
        configs.append(technique)
    return SweepSpec.from_grid(
        name, settings.benchmarks, configs, settings.instructions,
        backend=settings.backend,
    )


def _extras(technique: SimResult, baseline: SimResult, component: str) -> Dict[str, float]:
    """Per-component extra metrics the figures' bottom graphs use."""
    if component == "dcache":
        extras = {
            "prediction_accuracy": technique.dcache.prediction_accuracy,
            "miss_rate": technique.dcache.miss_rate,
        }
        extras.update(
            {f"kind_{k}": v for k, v in kind_breakdown(technique, DCACHE_KINDS).items()}
        )
        return extras
    if component == "icache":
        extras = {
            "prediction_accuracy": technique.icache.prediction_accuracy,
            "miss_rate": technique.icache.miss_rate,
        }
        extras.update(
            {f"kind_{k}": v
             for k, v in kind_breakdown(technique, ICACHE_KINDS, icache=True).items()}
        )
        return extras
    # processor: Figure 11's overall energy view
    return {
        "relative_energy": relative_energy(technique, baseline, "processor"),
        "cache_fraction": baseline.energy.cache_fraction_of_processor,
    }


def comparison_rows(
    sweep: SweepResult,
    comparisons: Sequence[Comparison],
    settings: Optional[ExperimentSettings] = None,
    component: str = "dcache",
) -> Dict[str, List[MetricRow]]:
    """Reduce an executed sweep to per-technique row lists (+ MEAN row)."""
    settings = settings or settings_from_env()
    out: Dict[str, List[MetricRow]] = {}
    for label, technique, baseline in comparisons:
        rows: List[MetricRow] = []
        for bench in settings.benchmarks:
            tech, base = sweep.pair(
                bench, technique, baseline, settings.instructions,
                backend=settings.backend,
            )
            rows.append(
                MetricRow(
                    benchmark=bench,
                    technique=label,
                    relative_energy_delay=relative_energy_delay(tech, base, component),
                    performance_degradation=performance_degradation(tech, base),
                    extras=_extras(tech, base, component),
                )
            )
        rows.append(mean_row(rows, label))
        out[label] = rows
    return out


def run_comparison(
    comparisons: Sequence[Comparison],
    settings: Optional[ExperimentSettings] = None,
    component: str = "dcache",
    engine: Optional[SweepEngine] = None,
    name: str = "comparison",
) -> Dict[str, List[MetricRow]]:
    """Declare, execute, and reduce a comparison grid in one call."""
    settings = settings or settings_from_env()
    engine = engine or default_engine()
    sweep = engine.run(comparison_spec(comparisons, settings, name))
    return comparison_rows(sweep, comparisons, settings, component)


def render_comparison(
    results: Dict[str, List[MetricRow]],
    title: str,
    show_accuracy: bool = False,
    show_breakdown: bool = False,
) -> str:
    """ASCII rendering of a d-cache comparison (top graph of a figure)."""
    headers = ["benchmark"]
    for label in results:
        headers.append(f"{label} E-D")
        headers.append(f"{label} perf%")
        if show_accuracy:
            headers.append(f"{label} acc%")
    benchmarks = [row.benchmark for row in next(iter(results.values()))]
    table_rows = []
    for i, bench in enumerate(benchmarks):
        row = [bench]
        for label in results:
            r = results[label][i]
            row.append(f"{r.relative_energy_delay:.3f}")
            row.append(f"{r.performance_degradation * 100:+.1f}")
            if show_accuracy:
                row.append(f"{r.extras.get('prediction_accuracy', 0.0) * 100:.0f}")
        table_rows.append(row)
    text = format_table(headers, table_rows, title)
    if show_breakdown:
        text += "\n\n" + render_breakdown(results)
    return text


def render_breakdown(results: Dict[str, List[MetricRow]]) -> str:
    """Access-kind breakdown (bottom graph of Figures 6-8)."""
    headers = ["technique", "benchmark"] + list(DCACHE_KINDS)
    table_rows = []
    for label, rows in results.items():
        for row in rows:
            table_rows.append(
                [label, row.benchmark]
                + [f"{row.extras.get(f'kind_{k}', 0.0) * 100:.0f}%" for k in DCACHE_KINDS]
            )
    return format_table(headers, table_rows, "Access breakdown (% of d-cache reads)")

"""Design-space analysis over sweep results.

A design *point* is one (technique, baseline) configuration pair — the
paper always normalizes a technique against the parallel-access cache of
the same shape.  :func:`design_space_spec` declares the full grid for a
set of points and :func:`summarize` reduces an executed sweep back to
the paper's two headline numbers per point: mean relative energy-delay
and mean performance degradation.

This is the library form of the ``repro-experiment sweep`` subcommand
and of ``examples/design_space_sweep.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.sim.config import SystemConfig
from repro.sim.results import performance_degradation, relative_energy_delay
from repro.sweep.result import SweepResult
from repro.sweep.spec import SweepSpec
from repro.utils.statsutil import arithmetic_mean
from repro.utils.text import format_table


@dataclass(frozen=True)
class DesignPoint:
    """One labelled (technique, baseline) pair to evaluate."""

    label: str
    technique: SystemConfig
    baseline: SystemConfig


@dataclass
class PointSummary:
    """Mean relative metrics for one design point.

    ``per_benchmark`` maps application name to its
    ``{"relative_energy_delay": ..., "performance_degradation": ...}``.
    """

    label: str
    relative_energy_delay: float
    performance_degradation: float
    per_benchmark: Dict[str, Dict[str, float]] = field(default_factory=dict)


def design_space_points(
    sizes: Sequence[int],
    ways: Sequence[int],
    latencies: Sequence[int],
    policies: Sequence[str],
    baseline_policy: str = "parallel",
) -> List[DesignPoint]:
    """Expand the (size, ways, latency, policy) grid into design points.

    This is the one grid builder behind both the ``sweep`` CLI
    subcommand and the service's ``"sweep"`` job kind, so a sweep
    submitted over HTTP names exactly the points the CLI would.
    Geometry constraints (power-of-two shapes, block fit) are validated
    here, before any simulation time is spent.

    Raises:
        ValueError: an unknown policy kind or an invalid cache shape.
    """
    points = [
        DesignPoint(
            label=f"{size_kb}K/{ways_}w/{latency}cyc {policy}",
            technique=SystemConfig()
            .with_dcache(size_kb=size_kb, associativity=ways_, latency=latency)
            .with_dcache_policy(policy),
            baseline=SystemConfig()
            .with_dcache(size_kb=size_kb, associativity=ways_, latency=latency)
            .with_dcache_policy(baseline_policy),
        )
        for size_kb in sizes
        for ways_ in ways
        for latency in latencies
        for policy in policies
    ]
    for point in points:
        point.technique.dcache.geometry()
        point.baseline.dcache.geometry()
    return points


def design_space_document(
    sweep: SweepResult,
    points: Sequence[DesignPoint],
    benchmarks: Sequence[str],
    instructions: int,
    component: str = "dcache",
    salt: int = 0,
    backend: str = "reference",
    interval: int = 0,
) -> Dict[str, object]:
    """The deterministic JSON document for an executed design-space sweep.

    Serialized with ``json.dumps(document, indent=2, sort_keys=True)``
    this is byte-identical however the sweep ran — CLI or service,
    serial or pooled, cold or cache-warm — because it contains only
    spec-keyed results, never execution accounting.
    """
    summaries = summarize(
        sweep, points, benchmarks, instructions, component, salt, backend=backend,
        interval=interval,
    )
    return {
        "sweep": sweep.spec.name,
        "component": component,
        "benchmarks": list(benchmarks),
        "instructions": instructions,
        "salt": salt,
        "backend": backend,
        "interval": interval,
        "points": [
            {
                "label": summary.label,
                "relative_energy_delay": summary.relative_energy_delay,
                "performance_degradation": summary.performance_degradation,
                "per_benchmark": summary.per_benchmark,
            }
            for summary in summaries
        ],
    }


def design_space_spec(
    points: Sequence[DesignPoint],
    benchmarks: Sequence[str],
    instructions: int,
    salt: int = 0,
    name: str = "design-space",
    backend: str = "reference",
    interval: int = 0,
) -> SweepSpec:
    """Declare the grid covering every point's technique and baseline."""
    configs: List[SystemConfig] = []
    for point in points:
        configs.append(point.baseline)
        configs.append(point.technique)
    return SweepSpec.from_grid(
        name, benchmarks, configs, instructions, salts=(salt,), backend=backend,
        interval=interval,
    )


def summarize(
    sweep: SweepResult,
    points: Sequence[DesignPoint],
    benchmarks: Sequence[str],
    instructions: int,
    component: str = "dcache",
    salt: int = 0,
    backend: str = "reference",
    interval: int = 0,
) -> List[PointSummary]:
    """Reduce an executed sweep to per-point mean relative metrics."""
    summaries: List[PointSummary] = []
    for point in points:
        per_benchmark: Dict[str, Dict[str, float]] = {}
        for benchmark in benchmarks:
            tech, base = sweep.pair(
                benchmark, point.technique, point.baseline, instructions, salt,
                backend=backend, interval=interval,
            )
            per_benchmark[benchmark] = {
                "relative_energy_delay": relative_energy_delay(tech, base, component),
                "performance_degradation": performance_degradation(tech, base),
            }
        summaries.append(
            PointSummary(
                label=point.label,
                relative_energy_delay=arithmetic_mean(
                    row["relative_energy_delay"] for row in per_benchmark.values()
                ),
                performance_degradation=arithmetic_mean(
                    row["performance_degradation"] for row in per_benchmark.values()
                ),
                per_benchmark=per_benchmark,
            )
        )
    return summaries


def render_summaries(summaries: Sequence[PointSummary], title: str) -> str:
    """ASCII table of point summaries (the sweep subcommand's output)."""
    rows = [
        [
            summary.label,
            f"{summary.relative_energy_delay:.3f}",
            f"{summary.performance_degradation * 100:+.1f}",
        ]
        for summary in summaries
    ]
    return format_table(["design point", "E-D", "perf%"], rows, title)

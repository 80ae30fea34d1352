"""Technique-vs-baseline comparisons: the one driver behind every report.

A design *point* is one labelled (technique, baseline) configuration
pair — the paper always normalizes a technique against the
parallel-access cache of the same shape.  Figures 4-11, Table 5, the
``repro-experiment sweep`` subcommand and the service's sweep jobs all
run through the same three steps:

* :func:`design_space_spec` declares the grid covering every point's
  technique and baseline (shared baselines de-duplicate in the spec);
* the engine executes it;
* :func:`point_rows` reduces the executed sweep to one point's
  per-application :class:`MetricRow` list plus its MEAN row.

:class:`SweepJobSpec` is the design-space request: the only statement
of the sweep's fields and defaults, read by the CLI's ``sweep`` flags
and by the service's protocol, and :meth:`SweepJobSpec.run` is the one
path that executes it.  :func:`design_space_document` is its
deterministic JSON form and :func:`render_summaries` its ASCII form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.kinds import DCACHE_KINDS, ICACHE_KINDS
from repro.sim.config import SystemConfig
from repro.sim.results import (
    SimResult,
    performance_degradation,
    relative_energy,
    relative_energy_delay,
)
from repro.sweep.engine import SweepEngine
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


def _extras(technique: SimResult, baseline: SimResult, component: str) -> Dict[str, float]:
    """The priced component's extra metrics (the figures' bottom graphs)."""
    if component == "processor":  # Figure 11's overall energy view
        return {
            "relative_energy": relative_energy(technique, baseline, "processor"),
            "cache_fraction": baseline.energy.cache_fraction_of_processor,
        }
    icache = component == "icache"
    cache = technique.icache if icache else technique.dcache
    extras = {
        "prediction_accuracy": cache.prediction_accuracy,
        "miss_rate": cache.miss_rate,
    }
    kinds = kind_breakdown(technique, ICACHE_KINDS if icache else DCACHE_KINDS, icache)
    extras.update({f"kind_{kind}": share for kind, share in kinds.items()})
    return extras


def point_rows(
    sweep: SweepResult,
    point: DesignPoint,
    benchmarks: Sequence[str],
    instructions: int,
    component: str = "dcache",
    salt: int = 0,
    backend: str = "reference",
    interval: int = 0,
) -> List[MetricRow]:
    """One point's per-application rows plus their MEAN row.

    ``component`` is the energy the energy-delay prices: ``"dcache"``,
    ``"icache"`` or ``"processor"``.  A benchmark named twice yields two
    rows, so it counts twice in the MEAN row.
    """
    rows: List[MetricRow] = []
    for benchmark in benchmarks:
        tech, base = sweep.pair(
            benchmark, point.technique, point.baseline, instructions, salt,
            backend=backend, interval=interval,
        )
        rows.append(
            MetricRow(
                benchmark=benchmark,
                technique=point.label,
                relative_energy_delay=relative_energy_delay(tech, base, component),
                performance_degradation=performance_degradation(tech, base),
                extras=_extras(tech, base, component),
            )
        )
    rows.append(mean_row(rows, point.label))
    return rows


def design_space_points(
    sizes: Sequence[int],
    ways: Sequence[int],
    latencies: Sequence[int],
    policies: Sequence[str],
    baseline_policy: str = "parallel",
) -> List[DesignPoint]:
    """Expand the (size, ways, latency, policy) grid into design points.

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

    One entry per point, in point order, so a point named twice keeps
    both entries.  ``per_benchmark`` is keyed by name, and each entry's
    means run over that map: a benchmark named twice counts once.
    Serialized with ``json.dumps(document, indent=2, sort_keys=True)``
    this is byte-identical however the sweep ran — CLI or service,
    serial or pooled, cold or cache-warm — because it contains only
    spec-keyed results, never execution accounting.
    """
    entries = []
    for point in points:
        rows = point_rows(
            sweep, point, benchmarks, instructions, component, salt, backend, interval,
        )
        per_benchmark = {row.benchmark: row for row in rows[:-1]}
        mean = mean_row(per_benchmark.values(), point.label)
        entries.append({
            "label": point.label,
            "relative_energy_delay": mean.relative_energy_delay,
            "performance_degradation": mean.performance_degradation,
            "per_benchmark": {
                name: {
                    "relative_energy_delay": row.relative_energy_delay,
                    "performance_degradation": row.performance_degradation,
                }
                for name, row in per_benchmark.items()
            },
        })
    return {
        "sweep": sweep.spec.name,
        "component": component,
        "benchmarks": list(benchmarks),
        "instructions": instructions,
        "salt": salt,
        "backend": backend,
        "interval": interval,
        "points": entries,
    }


def render_summaries(document: Dict[str, object], title: str) -> str:
    """ASCII table of a :func:`design_space_document` (the ``sweep``
    subcommand's output)."""
    rows = [
        [
            entry["label"],
            f"{entry['relative_energy_delay']:.3f}",
            f"{entry['performance_degradation'] * 100:+.1f}",
        ]
        for entry in document["points"]
    ]
    return format_table(["design point", "E-D", "perf%"], rows, title)


#: Energy components a sweep can normalize on.
COMPONENTS = ("dcache", "icache", "processor")


@dataclass(frozen=True)
class SweepJobSpec:
    """A design-space sweep request: every (size, ways, latency, policy)
    point against its ``baseline_policy`` cache of the same shape.

    The only statement of the sweep's fields and defaults: the
    ``repro-experiment sweep`` flags and the service's ``"sweep"`` job
    kind both read them here, so a minimal
    ``{"kind": "sweep", "benchmarks": ["gcc"]}`` submission computes
    what ``repro-experiment sweep --benchmarks gcc`` computes.
    """

    benchmarks: Tuple[str, ...]
    sizes: Tuple[int, ...] = (16,)
    ways: Tuple[int, ...] = (4,)
    latencies: Tuple[int, ...] = (1,)
    policies: Tuple[str, ...] = ("seldm_waypred",)
    baseline_policy: str = "parallel"
    instructions: int = 25_000
    salt: int = 0
    component: str = "dcache"
    backend: str = "reference"
    interval: int = 0

    kind = "sweep"

    def points(self) -> List[DesignPoint]:
        """The request's design points (``ValueError`` on a bad policy or shape)."""
        return design_space_points(
            self.sizes, self.ways, self.latencies, self.policies, self.baseline_policy,
        )

    def run(self, engine: SweepEngine) -> Tuple[SweepResult, Dict[str, object]]:
        """Execute the grid; return the sweep and its JSON document."""
        points = self.points()
        sweep = engine.run(design_space_spec(
            points, self.benchmarks, self.instructions, self.salt,
            name="adhoc-sweep", backend=self.backend, interval=self.interval,
        ))
        return sweep, design_space_document(
            sweep, points, self.benchmarks, self.instructions, self.component,
            self.salt, self.backend, self.interval,
        )

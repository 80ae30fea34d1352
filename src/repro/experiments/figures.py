"""Figures 4-11: one table of comparison figures.

Every figure reports the same thing: a technique's energy-delay and
performance loss against a parallel-access baseline of the same shape,
per application plus the mean.  A :class:`Figure` declares its
:class:`~repro.sweep.analyze.DesignPoint` pairs, the energy its
energy-delay prices, and how its rows render.  The points expand to one
:class:`~repro.sweep.spec.SweepSpec` through
:func:`~repro.sweep.analyze.design_space_spec`, and
:func:`~repro.sweep.analyze.point_rows` reduces the executed sweep into
``Dict[label, List[MetricRow]]`` — the same driver as Table 5 and the
``sweep`` subcommand.  All scheduling (parallelism, caching,
accounting) happens inside the engine, so every figure gains
``--jobs`` for free and renders byte-identically at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.core.kinds import DCACHE_KINDS, ICACHE_KINDS
from repro.energy.cactilite import CactiLite
from repro.experiments.common import ExperimentSettings, format_table, settings_from_env
from repro.sim.config import SystemConfig
from repro.sweep.analyze import DesignPoint, MetricRow, design_space_spec, point_rows
from repro.sweep.engine import SweepEngine, default_engine
from repro.sweep.spec import SweepSpec

#: A figure's reduced rows: label -> per-application rows + MEAN row.
Rows = Dict[str, List[MetricRow]]


def _accuracy(row: MetricRow) -> str:
    return f"{row.extras.get('prediction_accuracy', 0.0) * 100:.0f}"


#: A per-label cell column of the comparison tables: (header suffix, cell).
Column = Tuple[str, Callable[[MetricRow], str]]

_ED: Column = ("E-D", lambda r: f"{r.relative_energy_delay:.3f}")
_PERF: Column = ("perf%", lambda r: f"{r.performance_degradation * 100:+.1f}")
_ACCURACY: Column = ("acc%", _accuracy)


def _benchmark_table(
    results: Rows,
    columns: Sequence[Column],
    title: str,
    extra: Sequence[Tuple[str, List[str]]] = (),
) -> str:
    """One row per benchmark and one column group per label, plus any
    ``extra`` (header, cells) columns after the groups."""
    headers = ["benchmark"] + [f"{label} {name}" for label in results for name, _ in columns]
    headers += [header for header, _cells in extra]
    benchmarks = [row.benchmark for row in next(iter(results.values()))]
    table_rows = [
        [bench]
        + [cell(results[label][i]) for label in results for _name, cell in columns]
        + [cells[i] for _header, cells in extra]
        for i, bench in enumerate(benchmarks)
    ]
    return format_table(headers, table_rows, title)


def _kind_table(results: Rows, first: str, kinds: Sequence[str], title: str,
                accuracy: bool = False) -> str:
    """One row per (label, benchmark): each access kind's share, and
    optionally the prediction accuracy."""
    headers = [first, "benchmark"] + list(kinds) + (["accuracy%"] if accuracy else [])
    table_rows = []
    for label, rows in results.items():
        for row in rows:
            cells = [label, row.benchmark]
            cells += [f"{row.extras.get(f'kind_{k}', 0.0) * 100:.0f}%" for k in kinds]
            if accuracy:
                cells.append(_accuracy(row))
            table_rows.append(cells)
    return format_table(headers, table_rows, title)


def render_comparison(
    results: Rows,
    title: str,
    show_accuracy: bool = False,
    show_breakdown: bool = False,
) -> str:
    """ASCII rendering of a comparison (top graph of a figure), with the
    access-kind breakdown of Figures 6-8 below it on request."""
    text = _benchmark_table(
        results, (_ED, _PERF, _ACCURACY) if show_accuracy else (_ED, _PERF), title
    )
    if show_breakdown:
        text += "\n\n" + _kind_table(
            results, "technique", DCACHE_KINDS, "Access breakdown (% of d-cache reads)"
        )
    return text


def xor_timing_ratio() -> float:
    """The XOR scheme's table-lookup time relative to the cache access
    time (paper: ~0.48 for a 1024-entry table vs the 16K 4-way cache)."""
    return CactiLite().table_vs_cache_time_ratio(1024, 4, CacheGeometry(16 * 1024, 4, 32))


def _render_fig5(results: Rows) -> str:
    """Figure 5 plus the XOR scheme's timing-constraint note."""
    text = render_comparison(
        results, "Figure 5: PC- and XOR-based way-prediction", show_accuracy=True
    )
    return text + (
        f"\n\nXOR timing constraint: 1024-entry table lookup = "
        f"{xor_timing_ratio() * 100:.0f}% of cache access time (paper: 48%)"
    )


def _render_fig10(results: Rows) -> str:
    """Figure 10: E-D/perf plus the fetch prediction-source breakdown."""
    return (
        render_comparison(results, "Figure 10: Way-prediction for i-caches")
        + "\n\n"
        + _kind_table(results, "ways", ICACHE_KINDS,
                      "Fetch prediction-source breakdown (% of fetches)", accuracy=True)
    )


def _render_fig11(results: Rows) -> str:
    """Figure 11: processor E-D, energy and perf, plus the L1 share."""
    energy = ("E", lambda r: f"{r.extras['relative_energy']:.3f}")
    share = [f"{r.extras['cache_fraction'] * 100:.1f}" for r in results["Combined"]]
    return _benchmark_table(
        results, (_ED, energy, _PERF), "Figure 11: Overall processor energy(-delay)",
        extra=[("L1 share%", share)],
    )


@dataclass(frozen=True)
class Figure:
    """One comparison figure of the paper.

    Attributes:
        experiment_id: the CLI id (``fig4`` ... ``fig11``).
        title: short human title.
        comparisons: builds the figure's design points when called.
        component: the energy its energy-delay prices: ``"dcache"``,
            ``"icache"`` or ``"processor"``.
        formatter: renders the reduced rows as the figure's ASCII report.
    """

    experiment_id: str
    title: str
    comparisons: Callable[[], List[DesignPoint]]
    component: str
    formatter: Callable[[Rows], str]

    def sweep_spec(self, settings: Optional[ExperimentSettings] = None) -> SweepSpec:
        """The figure's full run grid."""
        settings = settings or settings_from_env()
        return design_space_spec(
            self.comparisons(), settings.benchmarks, settings.instructions,
            name=self.experiment_id, backend=settings.backend,
        )

    def rows(
        self,
        settings: Optional[ExperimentSettings] = None,
        engine: Optional[SweepEngine] = None,
    ) -> Rows:
        """Execute the grid and reduce to per-application rows."""
        settings = settings or settings_from_env()
        sweep = (engine or default_engine()).run(self.sweep_spec(settings))
        return {
            point.label: point_rows(
                sweep, point, settings.benchmarks, settings.instructions,
                self.component, backend=settings.backend,
            )
            for point in self.comparisons()
        }

    def render(
        self,
        settings: Optional[ExperimentSettings] = None,
        engine: Optional[SweepEngine] = None,
    ) -> str:
        """The figure's ASCII report."""
        return self.formatter(self.rows(settings, engine))


def _dcache_policies(baseline: SystemConfig, *labelled: Tuple[str, str]) -> List[DesignPoint]:
    """Each (label, d-cache policy kind) against the one ``baseline``."""
    return [
        DesignPoint(label, baseline.with_dcache_policy(kind), baseline)
        for label, kind in labelled
    ]


#: The eight comparison figures, in presentation order.
FIGURES: Tuple[Figure, ...] = (
    # Figure 4. Sequential access saves ~68% of d-cache energy-delay but
    # degrades performance ~11% on average (up to 18%) because every
    # access takes two cycles — unacceptable for an L1.
    Figure(
        "fig4", "Sequential-access cache",
        lambda: _dcache_policies(SystemConfig(), ("Sequential", "sequential")),
        "dcache",
        partial(
            render_comparison,
            title="Figure 4: Sequential-access cache relative energy-delay"
            " / performance degradation",
        ),
    ),
    # Figure 5. PC-based prediction is ~60% accurate and XOR-based ~70%
    # (highest-miss-rate fp codes lowest); energy-delay reductions are
    # 63%/64% with ~2-3% performance loss; and the XOR table lookup
    # occupies ~48% of the cache access time, making it hard to fit
    # ahead of the data address (section 4.2).
    Figure(
        "fig5", "PC- and XOR-based way-prediction",
        lambda: _dcache_policies(
            SystemConfig(), ("PC-based", "waypred_pc"), ("XOR-based", "waypred_xor"),
        ),
        "dcache",
        _render_fig5,
    ),
    # Figure 6 (and the core of Table 5). Selective-DM correctly predicts
    # ~77% of reads as non-conflicting; with parallel access for
    # conflicting reads the energy-delay reduction is ~59% (perf ~2.0%),
    # with way-prediction ~69% (perf ~2.4%), with sequential access ~73%
    # (perf ~3.4%) — the last two beating the sequential-access cache's
    # 68% without its 11% slowdown.
    Figure(
        "fig6", "Selective-DM schemes",
        lambda: _dcache_policies(
            SystemConfig(),
            ("Sel-DM+Parallel", "seldm_parallel"),
            ("Sel-DM+Waypred", "seldm_waypred"),
            ("Sel-DM+Sequential", "seldm_sequential"),
            ("PC-based", "waypred_pc"),
            ("Sequential", "sequential"),
        ),
        "dcache",
        partial(render_comparison, title="Figure 6: Selective-DM schemes", show_breakdown=True),
    ),
    # Figure 7. Sel-DM+waypred savings at 32K (~63%) are slightly below
    # 16K (~69%) because components the techniques do not reduce (tag
    # energy, address decode) grow as a share of total cache energy;
    # prediction accuracy does *not* degrade because the table is
    # PC-indexed, not address-indexed.  Each size runs against its
    # own-size parallel baseline.
    Figure(
        "fig7", "Effect of cache size on selective-DM",
        lambda: [
            DesignPoint(f"{size_kb}K", baseline.with_dcache_policy("seldm_waypred"), baseline)
            for size_kb in (16, 32)
            for baseline in [SystemConfig().with_dcache(size_kb=size_kb)]
        ],
        "dcache",
        partial(
            render_comparison,
            title="Figure 7: Effect of cache size on selective-DM"
            " (relative to same-size parallel baseline)",
            show_breakdown=True,
        ),
    ),
    # Figure 8. Sel-DM+waypred energy-delay savings *grow* with
    # associativity — 38%, 69%, 82% for 2-, 4-, 8-way — because a
    # parallel N-way read wastes (N-1) way reads; mispredictions rise
    # slightly with more ways while the non-conflicting fraction stays
    # high.  Each associativity runs against its own-shape baseline.
    Figure(
        "fig8", "Effect of associativity on selective-DM",
        lambda: [
            DesignPoint(f"{ways}-way", baseline.with_dcache_policy("seldm_waypred"), baseline)
            for ways in (2, 4, 8)
            for baseline in [SystemConfig().with_dcache(associativity=ways)]
        ],
        "dcache",
        partial(
            render_comparison,
            title="Figure 8: Effect of associativity on selective-DM "
            "(relative to same-associativity parallel baseline)",
            show_breakdown=True,
        ),
    ),
    # Figure 9. With a 2-cycle pipeline latency (mispredicted and
    # sequential accesses take 3 cycles; the baseline is the 2-cycle
    # parallel cache), sel-DM+waypred and sel-DM+sequential keep their
    # ~69%/~73% savings with ~2-3% degradation, while the all-sequential
    # cache degrades ~13% — the system absorbs *some* 3-cycle accesses
    # but not all of them.
    Figure(
        "fig9", "Selective-DM with a 2-cycle base d-cache",
        lambda: _dcache_policies(
            SystemConfig().with_dcache(latency=2),
            ("Sel-DM+Waypred", "seldm_waypred"),
            ("Sel-DM+Sequential", "seldm_sequential"),
            ("Sequential", "sequential"),
        ),
        "dcache",
        partial(
            render_comparison, title="Figure 9: Selective-DM schemes with a 2-cycle base d-cache"
        ),
    ),
    # Figure 10. I-cache way prediction: overall prediction accuracy
    # exceeds 92% for every application except fpppp (large conflicting
    # code footprint); fp codes with long basic blocks get >75% of
    # predictions from the SAWP while branchy integer codes lean on the
    # BTB/RAS; energy-delay savings are 39%/64%/72% for 2/4/8 ways with
    # <0.5% performance degradation.
    Figure(
        "fig10", "Way-prediction for i-caches",
        lambda: [
            DesignPoint(f"{ways}-way", baseline.with_icache_policy("waypred"), baseline)
            for ways in (2, 4, 8)
            for baseline in [SystemConfig().with_icache(associativity=ways)]
        ],
        "icache",
        _render_fig10,
    ),
    # Figure 11. The L1 caches dissipate 10-16% of processor energy;
    # combining selective-DM+way-prediction (d-cache) with i-cache way
    # prediction saves ~9% of processor energy and ~8% of energy-delay,
    # against ~10% for perfect (oracle) d-cache way prediction with no
    # performance loss.  (m88ksim's pathological 15% i-cache-BTB speedup
    # is a benchmark quirk the paper calls out; we do not model it.)
    Figure(
        "fig11", "Overall processor energy(-delay)",
        lambda: [
            DesignPoint(
                label, SystemConfig().with_dcache_policy(kind).with_icache_policy("waypred"),
                SystemConfig(),
            )
            for label, kind in (("Combined", "seldm_waypred"), ("Perfect", "oracle"))
        ],
        "processor",
        _render_fig11,
    ),
)

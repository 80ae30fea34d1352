"""Table 5: the d-cache design-option summary.

Aggregates the means of Figures 4-6 into the paper's summary table:

==============================  ==========  ==========
Technique                       E-D savings  perf loss
==============================  ==========  ==========
Sequential-access cache            68%          11%
PC-based way-prediction            63%          2.9%
XOR-based way-prediction           64%          2.3%
Sel-DM + parallel access           59%          2.0%
Sel-DM + way-prediction            69%          2.4%
Sel-DM + sequential access         73%          3.4%
==============================  ==========  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.common import ExperimentSettings, format_table, settings_from_env
from repro.sim.config import SystemConfig
from repro.sweep.analyze import DesignPoint, design_space_spec, point_rows
from repro.sweep.engine import SweepEngine, default_engine
from repro.sweep.spec import SweepSpec

#: (label, policy kind, paper E-D savings %, paper perf loss %, paper problem note)
PAPER_SUMMARY = (
    ("Sequential-access cache", "sequential", 68.0, 11.0, "high perf. degradation"),
    ("PC-based way-prediction", "waypred_pc", 63.0, 2.9, "low e-savings"),
    ("XOR-based way-prediction", "waypred_xor", 64.0, 2.3, "timing"),
    ("Sel-DM + parallel access", "seldm_parallel", 59.0, 2.0, "low e-savings"),
    ("Sel-DM + way-prediction", "seldm_waypred", 69.0, 2.4, ""),
    ("Sel-DM + sequential access", "seldm_sequential", 73.0, 3.4, ""),
)


@dataclass
class Table5Row:
    """One technique's measured-vs-paper summary numbers."""

    technique: str
    ed_savings_pct: float
    paper_ed_savings_pct: float
    perf_loss_pct: float
    paper_perf_loss_pct: float
    problem: str


def comparisons() -> List[DesignPoint]:
    """Every summarized technique vs the shared parallel baseline."""
    baseline = SystemConfig()
    return [
        DesignPoint(label, baseline.with_dcache_policy(kind), baseline)
        for label, kind, _, _, _ in PAPER_SUMMARY
    ]


def sweep_spec(settings: Optional[ExperimentSettings] = None) -> SweepSpec:
    """The table's full run grid."""
    settings = settings or settings_from_env()
    return design_space_spec(
        comparisons(), settings.benchmarks, settings.instructions, name="table5",
        backend=settings.backend,
    )


def run(
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> List[Table5Row]:
    """Compute the summary from fresh (memoized) runs."""
    settings = settings or settings_from_env()
    sweep = (engine or default_engine()).run(sweep_spec(settings))
    rows = []
    for point, (_label, _kind, paper_ed, paper_perf, problem) in zip(
        comparisons(), PAPER_SUMMARY
    ):
        mean = point_rows(
            sweep, point, settings.benchmarks, settings.instructions,
            backend=settings.backend,
        )[-1]
        rows.append(
            Table5Row(
                technique=point.label,
                ed_savings_pct=(1.0 - mean.relative_energy_delay) * 100,
                paper_ed_savings_pct=paper_ed,
                perf_loss_pct=mean.performance_degradation * 100,
                paper_perf_loss_pct=paper_perf,
                problem=problem,
            )
        )
    return rows


def render(
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> str:
    """ASCII analogue of Table 5 with paper-vs-measured columns."""
    rows = [
        [r.technique, f"{r.ed_savings_pct:.0f}", f"{r.paper_ed_savings_pct:.0f}",
         f"{r.perf_loss_pct:.1f}", f"{r.paper_perf_loss_pct:.1f}", r.problem]
        for r in run(settings, engine)
    ]
    return format_table(
        ["Technique", "E-D save% (model)", "(paper)", "Perf loss% (model)", "(paper)", "Problem"],
        rows,
        "Table 5: D-cache summary",
    )

"""Sweep orchestration: declarative run grids with parallel execution.

The layer between "what to simulate" and "how it runs":

* :class:`RunSpec` / :class:`SweepSpec` — declarative (benchmark,
  config, instructions, salt) grids (``repro.sweep.spec``);
* :class:`SweepEngine` — resolves specs against the runner caches and
  fans misses out over a process pool (``repro.sweep.engine``);
* :class:`SweepResult` — spec-keyed results with JSON export
  (``repro.sweep.result``);
* :mod:`repro.sweep.analyze` — the technique-vs-baseline driver every
  report shares: :class:`DesignPoint` pairs, :func:`design_space_spec`
  grids, the :func:`point_rows` reducer (the paper's per-application
  relative E-D / performance degradation plus their mean) and the
  :class:`SweepJobSpec` design-space request.

Quick start::

    from repro import SystemConfig
    from repro.sweep import SweepEngine, SweepSpec

    baseline = SystemConfig()
    spec = SweepSpec.from_grid(
        "demo",
        benchmarks=("gcc", "swim"),
        configs=(baseline, baseline.with_dcache_policy("seldm_waypred")),
        instructions=25_000,
    )
    sweep = SweepEngine(jobs=4).run(spec)
    tech, base = sweep.pair("gcc", spec.runs[1].config, baseline, 25_000)
"""

from repro.sweep.analyze import (
    DesignPoint,
    SweepJobSpec,
    design_space_spec,
    point_rows,
    render_summaries,
)
from repro.sweep.engine import SweepEngine, default_engine, default_jobs
from repro.sweep.result import SweepResult, SweepStats
from repro.sweep.spec import RunSpec, SweepSpec

__all__ = [
    "DesignPoint",
    "RunSpec",
    "SweepEngine",
    "SweepJobSpec",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "default_engine",
    "default_jobs",
    "design_space_spec",
    "point_rows",
    "render_summaries",
]

"""Table-4-style reports over externally captured (ingested) traces.

The paper's miss-rate comparison (Table 4) runs over SPEC traces; this
module renders the same DM vs 4-way comparison over *your* traces — a
directory of files in any registered ingest format
(:mod:`repro.workload.formats`).  Every file the format registry
recognizes becomes one row, replayed through the normal sweep engine as
a ``trace://`` workload, so results cache by content fingerprint and
parallelize with ``--jobs`` like any other experiment::

    repro-experiment trace report traces/          # CLI
    print(external.render("traces/"))              # library

``settings.instructions`` caps the replay length per trace (the usual
``REPRO_SCALE`` knob), and ``settings.backend`` picks the engine —
reports are byte-identical across backends by the fast backend's
equivalence contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.common import ExperimentSettings, format_table, settings_from_env
from repro.experiments.tables import table4_configs
from repro.sweep.engine import SweepEngine, default_engine
from repro.sweep.spec import SweepSpec
from repro.workload.formats import (
    detect_trace_format,
    make_trace_ref,
    trace_format_names,
)


@dataclass
class ExternalRow:
    """One ingested trace's DM and 4-way set-associative miss rates."""

    trace: str
    ref: str
    format: str
    instructions: int
    dm_miss_pct: float
    sa_miss_pct: float


def discover_traces(directory: Union[str, Path]) -> List[str]:
    """``trace://`` refs for every recognized file under ``directory``.

    Files whose extension matches no registered format are skipped;
    ordering is by filename, so reports are stable.

    Raises:
        ValueError: a missing directory, or one containing no
            recognized trace files (naming the registered formats).
    """
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"trace directory not found: {str(directory)!r}")
    refs: List[str] = []
    for path in sorted(root.iterdir()):
        if not path.is_file():
            continue
        try:
            info = detect_trace_format(path)
        except ValueError:
            continue
        refs.append(make_trace_ref(path, info.name))
    if not refs:
        raise ValueError(
            f"no recognized trace files under {str(directory)!r}; "
            f"registered formats: {trace_format_names()}"
        )
    return refs


def _spec_for(refs: List[str], settings: ExperimentSettings) -> SweepSpec:
    return SweepSpec.from_grid(
        "external-traces",
        refs,
        table4_configs(),
        settings.instructions,
        mode="missrate",
        backend=settings.backend,
    )


def sweep_spec(
    directory: Union[str, Path],
    settings: Optional[ExperimentSettings] = None,
) -> SweepSpec:
    """The report's grid: functional miss-rate runs, DM and 4-way,
    over every recognized trace in ``directory``."""
    settings = settings or settings_from_env()
    return _spec_for(discover_traces(directory), settings)


def external_rows(
    directory: Union[str, Path],
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> List[ExternalRow]:
    """DM vs 4-way miss rates for every ingested trace in ``directory``."""
    settings = settings or settings_from_env()
    engine = engine or default_engine()
    # One directory scan: the sweep and the row loop must agree on the
    # file list even if the directory changes while the sweep runs.
    refs = discover_traces(directory)
    sweep = engine.run(_spec_for(refs, settings))
    dm_config, sa_config = table4_configs()
    rows: List[ExternalRow] = []
    for ref in refs:
        dm = sweep.get(ref, dm_config, settings.instructions, mode="missrate",
                       backend=settings.backend)
        sa = sweep.get(ref, sa_config, settings.instructions, mode="missrate",
                       backend=settings.backend)
        fmt = ref.rsplit("#", 1)[1]
        rows.append(
            ExternalRow(
                trace=dm.benchmark,
                ref=ref,
                format=fmt,
                instructions=dm.core.instructions,
                dm_miss_pct=dm.dcache.miss_rate * 100,
                sa_miss_pct=sa.dcache.miss_rate * 100,
            )
        )
    return rows


def render(
    directory: Union[str, Path],
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> str:
    """Table-4-style ASCII report over a directory of ingested traces."""
    rows = external_rows(directory, settings, engine)
    cells = [
        [row.trace, row.format, str(row.instructions),
         f"{row.dm_miss_pct:.1f}", f"{row.sa_miss_pct:.1f}"]
        for row in rows
    ]
    return format_table(
        ["trace", "format", "#inst", "DM miss%", "4-way miss%"],
        cells,
        f"External traces ({Path(directory)}): d-cache miss rates, DM vs 4-way",
    )

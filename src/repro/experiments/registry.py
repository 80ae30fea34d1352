"""Experiment registry: id -> Experiment, for the CLI and benches.

Every experiment renders through the uniform ``(settings, engine)``
signature, so the CLI's ``--jobs`` flag and ``REPRO_JOBS`` parallelize
all of them without per-experiment plumbing.  ``rows`` returns the
experiment's result rows — plain dataclasses or row dicts — which
:func:`experiment_json` serializes and :func:`experiments_report`
prints as the one JSON text of ``repro-experiment IDS --json`` and of
a service experiment job.  The eight comparison figures come from
:data:`~repro.experiments.figures.FIGURES`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import dynamic, table5, tables
from repro.experiments.common import ExperimentSettings
from repro.experiments.figures import FIGURES
from repro.sweep.engine import SweepEngine


@dataclass(frozen=True)
class Experiment:
    """One registered table/figure.

    Attributes:
        experiment_id: the CLI id (``table1`` ... ``fig11``).
        title: short human title.
        renderer: ``(settings, engine) -> str`` ASCII report.
        rows: ``(settings, engine) -> rows`` for JSON export.
    """

    experiment_id: str
    title: str
    renderer: Callable[..., str]
    rows: Callable[..., object]

    def render(
        self,
        settings: Optional[ExperimentSettings] = None,
        engine: Optional[SweepEngine] = None,
    ) -> str:
        """The experiment's ASCII report."""
        return self.renderer(settings, engine)


#: Map experiment id -> Experiment, in presentation order.
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.experiment_id: experiment
    for experiment in (
        Experiment("table1", "System configuration parameters",
                   tables.render_table1,
                   lambda settings, engine: tables.table1_rows()),
        Experiment("table2", "Applications and input sets",
                   tables.render_table2,
                   lambda settings, engine: tables.table2_rows()),
        Experiment("table3", "Cache energy and prediction overhead",
                   tables.render_table3,
                   lambda settings, engine: tables.table3_rows()),
        Experiment("table4", "D-cache miss rates (DM vs 4-way)",
                   tables.render_table4, tables.table4_rows),
        Experiment("table5", "D-cache design-option summary",
                   table5.render, table5.run),
        *(Experiment(figure.experiment_id, figure.title, figure.render, figure.rows)
          for figure in FIGURES),
        Experiment("dynamic", "Dynamic policies: static vs adaptive",
                   dynamic.render, dynamic.run),
    )
}


def list_experiments() -> List[str]:
    """Registered experiment ids in presentation order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Experiment:
    """Return the :class:`Experiment` for ``experiment_id``.

    Raises:
        KeyError: naming the unknown id and the valid ids.
    """
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; valid: {list_experiments()}"
        ) from None


def _jsonify(value: object) -> object:
    """Recursively convert rows (dataclasses/dicts/sequences) to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def experiment_json(
    experiment_id: str,
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, object]:
    """Machine-readable form of one experiment (one entry of
    :func:`experiments_report`)."""
    experiment = get_experiment(experiment_id)
    return {
        "experiment": experiment.experiment_id,
        "title": experiment.title,
        "rows": _jsonify(experiment.rows(settings, engine)),
    }


def experiments_report(
    experiment_ids: Sequence[str],
    settings: Optional[ExperimentSettings] = None,
    engine: Optional[SweepEngine] = None,
) -> str:
    """The JSON text of ``repro-experiment IDS --json``, which is also an
    experiment job's report (``KeyError`` on an unknown id)."""
    documents = [
        experiment_json(experiment_id, settings, engine)
        for experiment_id in experiment_ids
    ]
    return json.dumps(documents, indent=2, sort_keys=True)

"""Experiment harness: the paper's tables and figures.

``tables`` holds Tables 1-4, ``table5`` the d-cache summary,
``figures`` the eight comparison figures (4-11) as one table of
declarations, ``dynamic`` the static vs adaptive study and ``external``
Table-4-style reports over ingested traces.  The figures and Table 5
compare techniques through :mod:`repro.sweep.analyze`, the driver the
``sweep`` subcommand shares; ``dynamic`` keeps its own reduction, since
its baseline runs without ticks while its techniques tick.  Every
experiment returns its result rows (plain dataclasses) and can render
itself as the ASCII analogue of the paper's table or figure.  The
benches under ``benchmarks/`` call these and assert the paper's
qualitative claims; ``repro-experiment <id>`` runs them from the CLI.
"""

from repro.experiments.common import (
    DEFAULT_INSTRUCTIONS,
    ExperimentSettings,
    settings_from_env,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "EXPERIMENTS",
    "ExperimentSettings",
    "get_experiment",
    "list_experiments",
    "settings_from_env",
]

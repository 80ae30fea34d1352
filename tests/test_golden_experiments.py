"""Golden regression tests for the paper's rendered tables and figures.

Each experiment is rendered at a small, fixed scale (two applications,
short traces — enough to exercise every code path deterministically)
and diffed byte-for-byte against a committed snapshot under
``tests/golden/``.  The same snapshot must also be reproduced by the
``fast`` backend on both of its miss-rate kernel tiers — the python
kernels (numpy hidden) and the numpy ``vector`` kernels — which pins
the CLI-level guarantee that ``repro-experiment --backend fast`` emits
reports identical to ``--backend reference`` with or without numpy.

Regenerating snapshots (after an intentional model change)::

    PYTHONPATH=src python -m pytest tests/test_golden_experiments.py \
        --update-golden

then review the diff like any other code change.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import get_experiment
from repro.fastsim import vector as vector_module
from repro.sweep.engine import SweepEngine

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed snapshot scale: deterministic, small, conflict-rich.
GOLDEN_SETTINGS = ExperimentSettings(instructions=3_000, benchmarks=("gcc", "swim"))

#: Experiments with committed snapshots (the paper's evaluated outputs).
GOLDEN_EXPERIMENTS = (
    "table4",
    "table5",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
)


def _golden_path(experiment_id: str) -> Path:
    return GOLDEN_DIR / f"{experiment_id}.txt"


def _render(experiment_id: str, backend: str, use_cache: bool = True) -> str:
    """Render one experiment.  The fast renders pass ``use_cache=False``:
    both miss-rate kernel tiers of ``fast`` share result keys, so a
    cached render would replay the results of whichever tier ran first."""
    settings = replace(GOLDEN_SETTINGS, backend=backend)
    engine = SweepEngine(jobs=1, use_cache=use_cache)
    return get_experiment(experiment_id).render(settings, engine) + "\n"


@pytest.mark.parametrize("experiment_id", GOLDEN_EXPERIMENTS)
def test_golden_render(experiment_id, request):
    """Reference-backend render matches the committed snapshot."""
    rendered = _render(experiment_id, "reference")
    path = _golden_path(experiment_id)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden snapshot {path}; regenerate with "
        "pytest tests/test_golden_experiments.py --update-golden"
    )
    assert rendered == path.read_text(encoding="utf-8"), (
        f"{experiment_id} drifted from its golden snapshot; if the change "
        "is intentional, regenerate with --update-golden and review the diff"
    )


@pytest.mark.parametrize("experiment_id", GOLDEN_EXPERIMENTS)
def test_fast_backend_reproduces_golden(experiment_id, request, monkeypatch):
    """Fast-backend render on the python kernels is byte-identical to
    the same snapshot: numpy is hidden, so every miss-rate experiment
    runs the python miss-rate kernels, on every install."""
    if request.config.getoption("--update-golden"):
        pytest.skip("snapshots regenerate from the reference backend")
    path = _golden_path(experiment_id)
    assert path.exists(), f"missing golden snapshot {path}"
    monkeypatch.setattr(vector_module, "np", None)
    rendered = _render(experiment_id, "fast", use_cache=False)
    assert rendered == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("experiment_id", GOLDEN_EXPERIMENTS)
def test_vector_backend_reproduces_golden(experiment_id, request):
    """Fast-backend render with numpy visible is byte-identical to the
    same snapshot.

    With numpy installed this drives the numpy (``vector``) kernels
    through every miss-rate experiment; without it the tier falls back
    to the python kernels, so the property still holds (and still
    runs)."""
    if request.config.getoption("--update-golden"):
        pytest.skip("snapshots regenerate from the reference backend")
    path = _golden_path(experiment_id)
    assert path.exists(), f"missing golden snapshot {path}"
    rendered = _render(experiment_id, "fast", use_cache=False)
    assert rendered == path.read_text(encoding="utf-8")

"""I-cache fetch policies as registry plugins (section 2.3).

The i-cache side used to be a ``way_predict: bool`` flag on
:class:`~repro.core.icache.ICacheEngine`; it is now a real policy
family registered through the same mechanism as the d-cache policies —
the in-repo demonstration that a new policy plugs into spec, config,
simulator, sweeps, and CLI by adding exactly one module.

An :class:`ICachePolicy` answers two questions:

* is way prediction active for fetches (``way_predict``)?
* which predictor state does the fetch unit train (``make_predictor``)?

The BTB and RAS way fields live in their own structures
(:mod:`repro.predictors`); the policy owns the SAWP table, sized by its
``sawp_entries`` parameter.
"""

from __future__ import annotations

from typing import Optional

from repro.core.registry import register_policy
from repro.predictors.table import WayPredictionTable


class IFetchWayPredictor:
    """The SAWP table: current fetch PC -> next sequential fetch's way."""

    def __init__(self, entries: int = 1024) -> None:
        self.sawp = WayPredictionTable(entries)

    def predict_sequential(self, current_block_pc: int) -> Optional[int]:
        """Way prediction for a sequential/not-taken transition."""
        return self.sawp.predict(current_block_pc >> 5)

    def train_sequential(self, current_block_pc: int, next_way: int) -> None:
        """Record the way the next sequential block resolved to."""
        self.sawp.train(current_block_pc >> 5, next_way)


class ICachePolicy:
    """Base class for i-cache fetch policies.

    Subclasses set :attr:`way_predict` and build the predictor state
    the fetch unit consults; the defaults describe the conventional
    parallel-access fetch path.
    """

    #: Whether fetch uses BTB/SAWP/RAS way prediction.
    way_predict = False

    def make_predictor(self) -> Optional[IFetchWayPredictor]:
        """Predictor state for the fetch unit, or ``None`` when the
        policy never predicts."""
        return None


@register_policy("parallel", side="icache", label="Parallel")
class ParallelFetchPolicy(ICachePolicy):
    """Conventional fetch: every access probes all ways."""

    way_predict = False


@register_policy(
    "waypred", side="icache", label="Way-pred (SAWP+BTB+RAS)",
    params={"sawp_entries": 1024},
)
class WayPredictedFetchPolicy(ICachePolicy):
    """Figure 3's mechanism: BTB/RAS way fields plus the SAWP table."""

    way_predict = True

    def __init__(self, sawp_entries: int = 1024) -> None:
        self.sawp_entries = sawp_entries

    def make_predictor(self) -> IFetchWayPredictor:
        return IFetchWayPredictor(self.sawp_entries)

"""I-cache way prediction (Figure 3, section 2.3).

Way prediction for instruction fetch piggybacks on fetch-address
prediction, so it is both timely (the way arrives with the predicted
next PC, a full cycle early) and accurate:

* predicted-taken branches: the **BTB** entry carries a way field
  (next-line-set-prediction);
* returns: the **RAS** carries the return address's way;
* sequential fetches and not-taken branches: the **SAWP** (Sequential
  Address Way-Predictor) table, indexed by the current fetch PC —
  needed because "successive PCs may not fall within the same way";
* branch-misprediction restarts and structure misses: no prediction;
  the fetch defaults to parallel access.

The policy family lives in :mod:`repro.core.icache_policy` (registered
through the shared registry): :class:`IFetchWayPredictor` owns the SAWP;
the BTB and RAS way fields live in their structures
(:mod:`repro.predictors`).  The fetch unit (:mod:`repro.cpu.fetch`)
decides which source supplies each prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache
from repro.cache.sram import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.icache_policy import (
    ICachePolicy,
    IFetchWayPredictor,
    WayPredictedFetchPolicy,
)
from repro.core.kinds import (
    KIND_BTB_CORRECT,
    KIND_MISPREDICTED,
    KIND_NO_PREDICTION,
    KIND_PARALLEL,
    KIND_SAWP_CORRECT,
)

__all__ = [
    "FetchOutcome",
    "ICacheEngine",
    "ICachePolicy",
    "IFetchWayPredictor",
    "SOURCE_BTB",
    "SOURCE_NONE",
    "SOURCE_RAS",
    "SOURCE_SAWP",
]

#: Prediction-source labels passed by the fetch unit.
SOURCE_SAWP = "sawp"
SOURCE_BTB = "btb"
SOURCE_RAS = "ras"
SOURCE_NONE = "none"

_CORRECT_KIND = {
    SOURCE_SAWP: KIND_SAWP_CORRECT,
    SOURCE_BTB: KIND_BTB_CORRECT,
    SOURCE_RAS: KIND_BTB_CORRECT,  # the paper groups BTB and RAS together
}


@dataclass(frozen=True)
class FetchOutcome:
    """Result of one i-cache block fetch."""

    hit: bool
    latency: int
    kind: str
    way: int


class ICacheEngine:
    """L1 instruction cache driven by a registered fetch policy.

    The policy decides whether fetches use way prediction and owns the
    SAWP state; a ``parallel`` policy models the conventional baseline
    where every fetch probes all ways.  Like the d-cache engine it only
    counts events; :mod:`repro.energy.pricing` prices them.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        l2: L2Cache,
        base_latency: int = 1,
        policy: Optional[ICachePolicy] = None,
    ) -> None:
        self.geometry = geometry
        self.fields = geometry.fields
        self.l2 = l2
        self.base_latency = base_latency
        self.policy = policy if policy is not None else WayPredictedFetchPolicy()
        self.way_predictor = self.policy.make_predictor()
        self.array = SetAssociativeCache(geometry)
        self.stats = CacheStats()

    @property
    def way_predict(self) -> bool:
        """Whether the configured policy predicts fetch ways."""
        return self.policy.way_predict and self.way_predictor is not None

    def fetch(self, pc: int, predicted_way: Optional[int], source: str) -> FetchOutcome:
        """Fetch the block containing ``pc``.

        Args:
            predicted_way: way supplied by the fetch unit's structures,
                or None (defaults to parallel access).
            source: one of the ``SOURCE_*`` labels (for the Figure 10
                breakdown and the way-field/table access counts).
        """
        self.stats.loads += 1
        resident_way = self.array.probe(pc)
        hit = resident_way is not None

        if not self.way_predict:
            predicted_way = None
            source = SOURCE_NONE

        if predicted_way is None:
            # Conventional parallel access.
            self.stats.parallel_reads += 1
            latency = self.base_latency
            kind = KIND_NO_PREDICTION if self.way_predict else KIND_PARALLEL
        else:
            # Probe only the predicted way, in parallel with the tags.
            self.stats.one_way_reads += 1
            if source in (SOURCE_BTB, SOURCE_RAS):
                self.stats.way_field_accesses += 1
            else:
                self.stats.table_accesses += 1
            if hit:
                self.stats.predictions += 1
                if predicted_way == resident_way:
                    self.stats.correct_predictions += 1
                    latency = self.base_latency
                    kind = _CORRECT_KIND[source]
                else:
                    # Second probe of the matching way.
                    self.stats.second_probes += 1
                    latency = self.base_latency + 1
                    kind = KIND_MISPREDICTED
            else:
                latency = self.base_latency
                kind = KIND_NO_PREDICTION

        if hit:
            self.stats.load_hits += 1
            self.array.touch(pc, resident_way)
            way = resident_way
        else:
            latency += self.l2.fetch_block(pc)
            way = self.array.fill(pc).way
            self.stats.fills += 1

        self.stats.count_kind(kind)
        return FetchOutcome(hit=hit, latency=latency, kind=kind, way=way)

    def way_of(self, pc: int) -> Optional[int]:
        """Quiet tag inspection (no events): used when pushing RAS ways."""
        return self.array.probe(pc)

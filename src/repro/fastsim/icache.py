"""Array-state L1 i-cache engine for the fetch-policy family.

Counterpart of :class:`~repro.core.icache.ICacheEngine`, built from the
same :class:`~repro.core.icache_policy.ICachePolicy` object, so every
registered i-cache kind (plugins included) runs on it.  The fast fetch
unit drives it through ``fetch_tuple``/``way_of``/``way_predictor``/
``way_predict`` and gets byte-identical results: it counts the
reference engine's events, which are priced after the run.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.core.icache import SOURCE_BTB, SOURCE_NONE, SOURCE_RAS, SOURCE_SAWP
from repro.core.icache_policy import ICachePolicy, WayPredictedFetchPolicy
from repro.core.kinds import (
    KIND_BTB_CORRECT,
    KIND_MISPREDICTED,
    KIND_NO_PREDICTION,
    KIND_PARALLEL,
    KIND_SAWP_CORRECT,
)
from repro.fastsim.l2 import FastL2
from repro.utils.bitops import bit_mask

#: Correct-prediction kind per source (the paper groups BTB and RAS).
_CORRECT_KIND = {
    SOURCE_SAWP: KIND_SAWP_CORRECT,
    SOURCE_BTB: KIND_BTB_CORRECT,
    SOURCE_RAS: KIND_BTB_CORRECT,
}


class FastICacheEngine:
    """L1 instruction cache: flat arrays + the fetch policy's predictor.

    Takes the same arguments as ``ICacheEngine``; ``l2`` is the fast
    tier's :class:`~repro.fastsim.l2.FastL2` (either tier's L2 serves).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        l2: FastL2,
        base_latency: int = 1,
        policy: Optional[ICachePolicy] = None,
    ) -> None:
        self.geometry = geometry
        self.fields = geometry.fields
        self.l2 = l2
        self.base_latency = base_latency
        self.stats = CacheStats()

        self.policy = policy if policy is not None else WayPredictedFetchPolicy()
        self.way_predictor = self.policy.make_predictor()
        self.way_predict = self.policy.way_predict and self.way_predictor is not None

        assoc = geometry.associativity
        self._offset_bits = self.fields.offset_bits
        self._set_mask = bit_mask(self.fields.index_bits)
        num_sets = geometry.num_sets
        self._tags = [[-1] * assoc for _ in range(num_sets)]
        # Way order per set, MRU-first (the reference's ``CacheSet.order``).
        self._orders = [list(range(assoc)) for _ in range(num_sets)]
        self._fill_way = -1

    # ------------------------------------------------------------------ #

    def fetch_tuple(self, pc: int, predicted_way: Optional[int], source: str) -> tuple:
        """Fetch the block containing ``pc``; mirrors ``ICacheEngine.fetch``
        and returns a plain ``(hit, latency, kind, way)`` (the fast fetch
        unit consumes only latency and way)."""
        stats = self.stats
        stats.loads += 1
        block = pc >> self._offset_bits
        index = block & self._set_mask
        tags = self._tags[index]
        try:
            resident_way: Optional[int] = tags.index(block)
            hit = True
        except ValueError:
            resident_way = None
            hit = False

        if not self.way_predict:
            predicted_way = None
            source = SOURCE_NONE

        if predicted_way is None:
            # Conventional parallel access.
            stats.parallel_reads += 1
            latency = self.base_latency
            kind = KIND_NO_PREDICTION if self.way_predict else KIND_PARALLEL
        else:
            # Probe only the predicted way, in parallel with the tags.
            stats.one_way_reads += 1
            if source in (SOURCE_BTB, SOURCE_RAS):
                stats.way_field_accesses += 1
            else:
                stats.table_accesses += 1
            if hit:
                stats.predictions += 1
                if predicted_way == resident_way:
                    stats.correct_predictions += 1
                    latency = self.base_latency
                    kind = _CORRECT_KIND[source]
                else:
                    # Second probe of the matching way.
                    stats.second_probes += 1
                    latency = self.base_latency + 1
                    kind = KIND_MISPREDICTED
            else:
                latency = self.base_latency
                kind = KIND_NO_PREDICTION

        if hit:
            stats.load_hits += 1
            self._touch(index, resident_way)
            way = resident_way
        else:
            latency += self._miss_path(pc, block, index)
            way = self._fill_way

        kinds = stats.access_kinds
        kinds[kind] = kinds.get(kind, 0) + 1
        return hit, latency, kind, way

    def way_of(self, pc: int) -> Optional[int]:
        """Quiet tag inspection (no events): used when pushing RAS ways."""
        block = pc >> self._offset_bits
        try:
            return self._tags[block & self._set_mask].index(block)
        except ValueError:
            return None

    # ------------------------------------------------------------------ #

    def _touch(self, index: int, way: int) -> None:
        order = self._orders[index]
        order.remove(way)
        order.insert(0, way)

    def _miss_path(self, pc: int, block: int, index: int) -> int:
        added = self.l2.fetch_block(pc)
        tags = self._tags[index]
        try:
            way = tags.index(-1)  # lowest invalid way first
        except ValueError:
            way = self._orders[index][-1]  # the LRU way
        tags[way] = block
        self._touch(index, way)
        self.stats.fills += 1
        self._fill_way = way
        return added

"""The policy-driven L1 d-cache engine.

Executes probe plans against the functional array, counts the events of
Figure 1's schedules, reports latency to the core, handles the miss path
through the L2/memory hierarchy, and drives policy training.  The
engine charges no energy: :mod:`repro.energy.pricing` prices its
:class:`~repro.cache.stats.CacheStats` counts after the run.

Event/latency schedule (section 2.1), with ``base`` the cache's pipeline
latency in cycles:

=====================  ============================================  ========
Access                 Events counted                                Latency
=====================  ============================================  ========
parallel read          parallel read                                 base
one-way read, right    one-way read                                  base
one-way read, wrong    one-way read + second probe                   base + 1
sequential read, hit   one-way read                                  base + 1
sequential read, miss  tag-only probe                                base + 1
store (any policy)     store write (+ tag-only probe on a miss)      base
=====================  ============================================  ========

Mispredictions probe "only two data ways ... in all, the total energy of
a misprediction is not as high as that of a parallel access when
set-associativity is greater than two."  Stores never predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache
from repro.cache.sram import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.interval import validate_reconfigure
from repro.core.kinds import KIND_BYPASSED, KIND_MISPREDICTED
from repro.core.policy import (
    DCachePolicy,
    MODE_ORACLE,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    ProbePlan,
)


@dataclass(frozen=True)
class LoadOutcome:
    """Result of a load access."""

    hit: bool
    latency: int
    kind: str
    way: int


@dataclass(frozen=True)
class StoreOutcome:
    """Result of a store access."""

    hit: bool
    latency: int


class DCacheEngine:
    """L1 data cache with pluggable access policy.

    Args:
        geometry: L1 geometry.
        policy: the access policy under evaluation.
        l2: backing L2 (over main memory), shared with the i-cache.
        base_latency: hit latency in cycles (1 or 2 in the paper).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: DCachePolicy,
        l2: L2Cache,
        base_latency: int = 1,
    ) -> None:
        self.geometry = geometry
        self.fields = geometry.fields
        self.policy = policy
        self.l2 = l2
        self.base_latency = base_latency
        self.array = SetAssociativeCache(geometry)
        self.stats = CacheStats()
        #: When set (by the interval driver), loads/stores skip L1
        #: entirely and go straight to the L2 (forced misses).
        self.bypassed = False
        #: Accesses performed while bypassed (observability metadata).
        self.bypassed_accesses = 0

    # ------------------------------------------------------------------ #
    # Runtime reconfiguration (interval ticks)
    # ------------------------------------------------------------------ #

    def reconfigure(self, new_geometry: CacheGeometry) -> None:
        """Apply a controlled mid-run geometry change (invalidate-all).

        Dirty victims are written back to the L2 first (each reaches
        the L2 as a store access, but with no latency and no L1 probe
        events: the resize is modeled as happening off the critical
        path).  The array rebuilds with fresh replacement state, and all
        cumulative stats are preserved.
        Block size and address width must not change
        (:func:`~repro.core.interval.validate_reconfigure`).
        """
        validate_reconfigure(self.geometry, new_geometry)
        offset_bits = self.fields.offset_bits
        for block_addr in self.array.reconfigure(new_geometry):
            self.l2.absorb_writeback(block_addr << offset_bits)
        self.geometry = new_geometry
        self.fields = new_geometry.fields

    # ------------------------------------------------------------------ #
    # Loads
    # ------------------------------------------------------------------ #

    def load(self, pc: int, addr: int, xor_handle: int = 0) -> LoadOutcome:
        """Perform a load; returns hit/latency/kind."""
        if self.bypassed:
            # Level-predictor bypass: straight to L2, no L1 state or
            # events, no prediction.  Counts as a (forced) miss.
            self.stats.loads += 1
            self.bypassed_accesses += 1
            latency = self.l2.fetch_block(addr)
            self.stats.count_kind(KIND_BYPASSED)
            return LoadOutcome(hit=False, latency=latency, kind=KIND_BYPASSED, way=-1)
        self.stats.loads += 1
        plan = self.policy.plan_load(pc, addr, xor_handle)
        self.stats.table_accesses += plan.table_reads

        resident_way = self.array.probe(addr)
        hit = resident_way is not None
        dm_way = self.fields.direct_mapped_way(addr)

        latency, kind = self._execute_plan(plan, resident_way, dm_way, hit)

        if hit:
            self.stats.load_hits += 1
            self.array.touch(addr, resident_way)
            final_way = resident_way
        else:
            latency += self._miss_path(addr, is_store=False)
            final_way = self.array.probe(addr)
            assert final_way is not None

        self.stats.count_kind(kind)
        self.stats.table_accesses += self.policy.observe_load(
            pc, addr, xor_handle, plan, resident_way, final_way, dm_way
        )
        return LoadOutcome(hit=hit, latency=latency, kind=kind, way=final_way)

    def _execute_plan(
        self,
        plan: ProbePlan,
        resident_way: Optional[int],
        dm_way: int,
        hit: bool,
    ) -> tuple:
        """Count the probe events and compute latency; returns
        (latency, kind)."""
        base = self.base_latency
        if plan.mode == MODE_PARALLEL:
            self.stats.parallel_reads += 1
            return base, plan.kind

        if plan.mode == MODE_SEQUENTIAL:
            if hit:
                self.stats.one_way_reads += 1
            else:
                # Tag array says miss; no data way is probed.
                self.stats.tag_only_probes += 1
            return base + 1, plan.kind

        if plan.mode == MODE_ORACLE:
            # Perfect prediction: matching way (or DM way on a miss fill).
            self.stats.one_way_reads += 1
            if hit:
                self.stats.predictions += 1
                self.stats.correct_predictions += 1
            return base, plan.kind

        # MODE_SINGLE: a predicted or direct-mapped way.
        probed_way = plan.way if plan.way is not None and plan.way >= 0 else dm_way
        probed_way = probed_way % self.geometry.associativity
        self.stats.one_way_reads += 1
        if hit:
            self.stats.predictions += 1
            if probed_way == resident_way:
                self.stats.correct_predictions += 1
                return base, plan.kind
            # Misprediction: second probe of the correct way.
            self.stats.second_probes += 1
            return base + 1, KIND_MISPREDICTED
        # Miss: the single probe was the only data-array read.
        return base, plan.kind

    # ------------------------------------------------------------------ #
    # Stores
    # ------------------------------------------------------------------ #

    def store(self, pc: int, addr: int) -> StoreOutcome:
        """Perform a store: tag check first, then one-way write.

        Stores "check the tag array first to determine the matching way
        and then probe and write into only the matching way, even in
        conventional parallel access caches" — the same events under
        every policy, and no prediction involved.
        """
        if self.bypassed:
            self.stats.stores += 1
            self.bypassed_accesses += 1
            latency = self.l2.store_block(addr)
            return StoreOutcome(hit=False, latency=latency)
        self.stats.stores += 1
        resident_way = self.array.probe(addr)
        hit = resident_way is not None
        latency = self.base_latency
        if hit:
            self.stats.store_hits += 1
            self.array.touch(addr, resident_way)
        else:
            # Write-allocate: fetch the block, then write into it.
            self.stats.tag_only_probes += 1
            latency += self._miss_path(addr, is_store=True)
        self.stats.store_writes += 1
        self.array.mark_dirty(addr)
        return StoreOutcome(hit=hit, latency=latency)

    # ------------------------------------------------------------------ #
    # Miss path
    # ------------------------------------------------------------------ #

    def _miss_path(self, addr: int, is_store: bool) -> int:
        """Fetch the block from L2/memory and install it; returns the
        added latency."""
        if is_store:
            added = self.l2.store_block(addr)
        else:
            added = self.l2.fetch_block(addr)
        way = self.policy.placement_way(addr, self.fields)
        if self.policy.uses_victim_list:
            self.stats.victim_searches += 1
        fill = self.array.fill(addr, way=way)
        self.stats.fills += 1
        if fill.eviction is not None:
            self.stats.victim_searches += self.policy.on_eviction(
                fill.eviction.block_addr
            )
            if fill.eviction.dirty:
                self.l2.absorb_writeback(
                    fill.eviction.block_addr << self.fields.offset_bits
                )
        return added

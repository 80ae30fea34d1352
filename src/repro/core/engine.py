"""The policy-driven L1 d-cache engine.

Executes probe plans against the functional array, charges energy per
the schedules of Figure 1, reports latency to the core, handles the
miss path through the L2/memory hierarchy, and drives policy training.

Energy/latency schedule (section 2.1), with ``base`` the cache's pipeline
latency in cycles:

====================  =============================================  ========
Access                Energy                                          Latency
====================  =============================================  ========
parallel read         tag + N x way + parallel output                 base
one-way read, right   tag + 1 x way + single output                   base
one-way read, wrong   tag + 2 x way + 2 x single output               base + 1
sequential read       tag + 1 x way + single output                   base + 1
store (any policy)    tag + 1 x way write                             base
====================  =============================================  ========

Mispredictions probe "only two data ways ... in all, the total energy of
a misprediction is not as high as that of a parallel access when
set-associativity is greater than two."  Stores never predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import MemoryHierarchy
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
from repro.energy.cactilite import CacheEnergyModel
from repro.energy.ledger import EnergyLedger
from repro.energy.tables import PredictionStructureEnergy


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
        hierarchy: backing L2 + memory.
        energy: per-event energies for this geometry.
        pred_energy: energies of the prediction structures.
        ledger: energy accumulation target; cache events are charged to
            component ``l1_dcache``, prediction overhead to ``prediction``.
        base_latency: hit latency in cycles (1 or 2 in the paper).
        miss_extra_penalty: extra cycles a single-way probe pays on a
            misprediction (1 in the paper).
    """

    ENERGY_COMPONENT = "l1_dcache"
    PREDICTION_COMPONENT = "prediction_dcache"

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: DCachePolicy,
        hierarchy: MemoryHierarchy,
        energy: CacheEnergyModel,
        pred_energy: PredictionStructureEnergy,
        ledger: EnergyLedger,
        base_latency: int = 1,
    ) -> None:
        self.geometry = geometry
        self.fields = geometry.fields
        self.policy = policy
        self.hierarchy = hierarchy
        self.energy = energy
        self.pred_energy = pred_energy
        self.ledger = ledger
        self.base_latency = base_latency
        self.array = SetAssociativeCache(geometry, name="L1D")
        self.stats = CacheStats()
        #: When set (by the interval driver), loads/stores skip L1
        #: entirely and go straight to the hierarchy (forced misses).
        self.bypassed = False
        #: Accesses performed while bypassed (observability metadata).
        self.bypassed_accesses = 0

    # ------------------------------------------------------------------ #
    # Runtime reconfiguration (interval ticks)
    # ------------------------------------------------------------------ #

    def reconfigure(self, new_geometry: CacheGeometry) -> None:
        """Apply a controlled mid-run geometry change (invalidate-all).

        Dirty victims are written back to the hierarchy first (counted
        as ordinary writebacks, but — like the L2's own flush — charged
        no latency or probe energy: the resize is modeled as happening
        off the critical path).  The array rebuilds with fresh
        replacement state, the energy model is re-derived for the new
        geometry, and all cumulative stats are preserved.  Block size
        and address width must not change
        (:func:`~repro.core.interval.validate_reconfigure`).
        """
        validate_reconfigure(self.geometry, new_geometry)
        offset_bits = self.fields.offset_bits
        for block_addr in self.array.reconfigure(new_geometry):
            self.stats.writebacks += 1
            self.hierarchy.absorb_writeback(block_addr << offset_bits)
        self.geometry = new_geometry
        self.fields = new_geometry.fields
        from repro.energy.cactilite import CactiLite

        self.energy = CactiLite().energy_model(new_geometry)

    def charged_energy(self) -> float:
        """Cache plus prediction energy charged so far (the interval
        driver's per-window energy signal)."""
        return self.ledger.get(self.ENERGY_COMPONENT) + self.ledger.get(
            self.PREDICTION_COMPONENT
        )

    # ------------------------------------------------------------------ #
    # Helper charging shortcuts
    # ------------------------------------------------------------------ #

    def _charge(self, amount: float) -> None:
        self.ledger.charge(self.ENERGY_COMPONENT, amount)

    def _charge_tables(self, reads: int, writes: int = 0) -> None:
        if reads or writes:
            self.ledger.charge(
                self.PREDICTION_COMPONENT,
                (reads + writes) * self.pred_energy.table_access,
            )

    # ------------------------------------------------------------------ #
    # Loads
    # ------------------------------------------------------------------ #

    def load(self, pc: int, addr: int, xor_handle: int = 0) -> LoadOutcome:
        """Perform a load; returns hit/latency/kind."""
        if self.bypassed:
            # Level-predictor bypass: straight to L2, no L1 state or
            # energy, no prediction.  Counts as a (forced) miss.
            self.stats.loads += 1
            self.bypassed_accesses += 1
            latency = self.hierarchy.fetch_block(addr)
            self.stats.count_kind(KIND_BYPASSED)
            return LoadOutcome(hit=False, latency=latency, kind=KIND_BYPASSED, way=-1)
        self.stats.loads += 1
        self.stats.tag_probes += 1
        plan = self.policy.plan_load(pc, addr, xor_handle)
        self._charge_tables(plan.table_reads)

        resident_way = self.array.probe(addr)
        hit = resident_way is not None
        dm_way = self.fields.direct_mapped_way(addr)

        latency, kind, probed_way = self._execute_plan(plan, resident_way, dm_way, hit)

        if hit:
            self.stats.load_hits += 1
            self.array.touch(addr, resident_way)
            final_way = resident_way
        else:
            latency += self._miss_path(addr, is_store=False)
            final_way = self.array.probe(addr)
            assert final_way is not None

        self.stats.count_kind(kind)
        writes = self.policy.observe_load(
            pc, addr, xor_handle, plan, resident_way, final_way, dm_way
        )
        self._charge_tables(0, writes)
        return LoadOutcome(hit=hit, latency=latency, kind=kind, way=final_way)

    def _execute_plan(
        self,
        plan: ProbePlan,
        resident_way: Optional[int],
        dm_way: int,
        hit: bool,
    ) -> tuple:
        """Charge probe energy and compute latency; returns
        (latency, kind, probed_way)."""
        base = self.base_latency
        n = self.geometry.associativity

        if plan.mode == MODE_PARALLEL:
            self._charge(self.energy.parallel_read())
            self.stats.data_way_reads += n
            return base, plan.kind, resident_way if hit else -1

        if plan.mode == MODE_SEQUENTIAL:
            if hit:
                self._charge(self.energy.one_way_read())
                self.stats.data_way_reads += 1
            else:
                # Tag array says miss; no data way is probed.
                self._charge(self.energy.addr_route + self.energy.tag_all_read)
            self.stats.extra_cycles += 1
            return base + 1, plan.kind, resident_way if hit else -1

        if plan.mode == MODE_ORACLE:
            # Perfect prediction: matching way (or DM way on a miss fill).
            self._charge(self.energy.one_way_read())
            self.stats.data_way_reads += 1
            if hit:
                self.stats.predictions += 1
                self.stats.correct_predictions += 1
            return base, plan.kind, resident_way if hit else -1

        # MODE_SINGLE: a predicted or direct-mapped way.
        probed_way = plan.way if plan.way is not None and plan.way >= 0 else dm_way
        probed_way = probed_way % n
        self._charge(self.energy.one_way_read())
        self.stats.data_way_reads += 1
        if hit:
            self.stats.predictions += 1
            if probed_way == resident_way:
                self.stats.correct_predictions += 1
                return base, plan.kind, probed_way
            # Misprediction: second probe of the correct way.
            self._charge(self.energy.extra_probe())
            self.stats.data_way_reads += 1
            self.stats.second_probes += 1
            self.stats.extra_cycles += 1
            return base + 1, KIND_MISPREDICTED, resident_way
        # Miss: the single probe was all the data-array energy spent.
        return base, plan.kind, -1

    # ------------------------------------------------------------------ #
    # Stores
    # ------------------------------------------------------------------ #

    def store(self, pc: int, addr: int) -> StoreOutcome:
        """Perform a store: tag check first, then one-way write.

        Stores "check the tag array first to determine the matching way
        and then probe and write into only the matching way, even in
        conventional parallel access caches" — identical energy under
        every policy, and no prediction involved.
        """
        if self.bypassed:
            self.stats.stores += 1
            self.bypassed_accesses += 1
            latency = self.hierarchy.store_block(addr)
            return StoreOutcome(hit=False, latency=latency)
        self.stats.stores += 1
        self.stats.tag_probes += 1
        resident_way = self.array.probe(addr)
        hit = resident_way is not None
        latency = self.base_latency
        if hit:
            self.stats.store_hits += 1
            self._charge(self.energy.store_write())
            self.stats.data_way_writes += 1
            self.array.touch(addr, resident_way)
            self.array.mark_dirty(addr)
        else:
            # Write-allocate: fetch the block, then write into it.
            self._charge(self.energy.addr_route + self.energy.tag_all_read)
            latency += self._miss_path(addr, is_store=True)
            self._charge(self.energy.store_write())
            self.stats.data_way_writes += 1
            self.array.mark_dirty(addr)
        return StoreOutcome(hit=hit, latency=latency)

    # ------------------------------------------------------------------ #
    # Miss path
    # ------------------------------------------------------------------ #

    def _miss_path(self, addr: int, is_store: bool) -> int:
        """Fetch the block from L2/memory and install it; returns the
        added latency."""
        if is_store:
            added = self.hierarchy.store_block(addr)
        else:
            added = self.hierarchy.fetch_block(addr)
        way, dm_placed = self.policy.placement_way(addr, self.fields)
        if self.policy.uses_victim_list:
            self.ledger.charge(
                self.PREDICTION_COMPONENT, self.pred_energy.victim_list_search
            )
        fill = self.array.fill(addr, way=way, dm_placed=dm_placed)
        self.stats.fills += 1
        self._charge(self.energy.fill_write())
        self.stats.data_way_writes += 1
        if fill.eviction is not None:
            self.stats.evictions += 1
            searches = self.policy.on_eviction(fill.eviction.block_addr)
            if searches:
                self.ledger.charge(
                    self.PREDICTION_COMPONENT,
                    searches * self.pred_energy.victim_list_search,
                )
            if fill.eviction.dirty:
                self.stats.writebacks += 1
                self.hierarchy.absorb_writeback(
                    fill.eviction.block_addr << self.fields.offset_bits
                )
        return added

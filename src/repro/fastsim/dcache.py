"""Array-state L1 d-cache engine with per-policy kernels.

Counterpart of :class:`~repro.core.engine.DCacheEngine` for every
registered d-cache kind: same constructor shape (a
:class:`~repro.core.spec.PolicySpec` instead of a built policy object),
same ``stats``/``policy``/``bypassed``/``reconfigure`` surface, same
access events — but the tag array is a list of per-set block-address
lists, the policy is a :class:`~repro.fastsim.kernels.DCacheKernel`
(inlined for the paper's static kinds, the policy-object adapter for
dynamic kinds and plugins) and accesses return plain tuples.  It counts
the reference engine's events on its ``CacheStats``, which are priced
after the run like the reference's, so results are byte-identical.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.core.factory import build_dcache_policy
from repro.core.interval import validate_reconfigure
from repro.core.kinds import KIND_BYPASSED, KIND_MISPREDICTED
from repro.core.spec import PolicySpec
from repro.fastsim.kernels import (
    FAST_DCACHE_KERNELS,
    MODE_ORACLE,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    policy_kernel,
)
from repro.fastsim.l2 import FastL2
from repro.utils.bitops import bit_mask


class FastDCacheEngine:
    """L1 data cache: flat arrays + per-policy kernel dispatch.

    Args:
        geometry: L1 geometry.
        spec: the d-cache policy spec (any registered kind).
        l2: backing L2 (over main memory), shared with the i-cache:
            the fast tier's :class:`~repro.fastsim.l2.FastL2` (an
            ``L2Cache`` answers the same three calls).
        base_latency: hit latency in cycles.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        spec: PolicySpec,
        l2: FastL2,
        base_latency: int = 1,
    ) -> None:
        self.l2 = l2
        self.base_latency = base_latency
        self.stats = CacheStats()
        self._build(geometry)

        # ``policy`` is the object behind the adapter kernel (dynamic
        # kinds and plugins); None when an inlined kernel runs the kind.
        factory = FAST_DCACHE_KERNELS.get(spec.kind)
        if factory is None:
            self.policy = build_dcache_policy(spec)
            kernel = policy_kernel(self.policy)
        else:
            self.policy = None
            kernel = factory(spec.as_dict())
        self._plan = kernel.plan
        self._observe = kernel.observe
        self._placement = kernel.placement
        self._on_eviction = kernel.on_eviction
        self._uses_victim_list = kernel.uses_victim_list

        #: When set (by the interval driver), accesses skip L1 and go
        #: straight to the L2, as in ``DCacheEngine``.
        self.bypassed = False
        self.bypassed_accesses = 0
        self._fill_way = -1

    def _build(self, geometry: CacheGeometry) -> None:
        """Set up empty arrays for ``geometry``."""
        self.geometry = geometry
        self.fields = fields = geometry.fields
        assoc = self._assoc = geometry.associativity
        self._offset_bits = fields.offset_bits
        self._index_bits = fields.index_bits
        self._set_mask = bit_mask(fields.index_bits)
        self._way_mask = bit_mask(fields.way_bits)
        num_sets = geometry.num_sets
        self._tags = [[-1] * assoc for _ in range(num_sets)]
        self._dirty = [[False] * assoc for _ in range(num_sets)]
        # Way order per set, MRU-first (the reference's ``CacheSet.order``).
        self._orders = [list(range(assoc)) for _ in range(num_sets)]

    # ------------------------------------------------------------------ #

    def reconfigure(self, new_geometry: CacheGeometry) -> None:
        """Mirror ``DCacheEngine.reconfigure``: flush, then rebuild.

        Dirty blocks are written back in set-major, way-minor order;
        the arrays are rebuilt for ``new_geometry``, and the stats carry
        over.  Kernels get the current fields on every fill, so none
        needs rebuilding.
        """
        validate_reconfigure(self.geometry, new_geometry)
        offset_bits = self._offset_bits
        for tags, dirty in zip(self._tags, self._dirty):
            for block, is_dirty in zip(tags, dirty):
                if is_dirty:
                    self.l2.absorb_writeback(block << offset_bits)
        self._build(new_geometry)

    # ------------------------------------------------------------------ #
    # Loads
    # ------------------------------------------------------------------ #

    def load_tuple(self, pc: int, addr: int, xor_handle: int = 0) -> tuple:
        """Perform a load; mirrors ``DCacheEngine.load`` event for event.

        Returns a plain ``(hit, latency, kind, way)``: the fast core
        consumes only the latency, and a tuple costs ~1/40th of a
        frozen-dataclass outcome on the hottest call in full-sim mode.
        """
        stats = self.stats
        if self.bypassed:
            # Straight to L2: no L1 state, events or training.
            stats.loads += 1
            self.bypassed_accesses += 1
            stats.count_kind(KIND_BYPASSED)
            return False, self.l2.fetch_block(addr), KIND_BYPASSED, -1
        stats.loads += 1
        mode, plan_way, kind, table_reads = self._plan(pc, addr, xor_handle)
        if table_reads:
            stats.table_accesses += table_reads

        block = addr >> self._offset_bits
        index = block & self._set_mask
        tags = self._tags[index]
        try:
            resident_way: Optional[int] = tags.index(block)
            hit = True
        except ValueError:
            resident_way = None
            hit = False
        dm_way = (block >> self._index_bits) & self._way_mask

        base = self.base_latency
        if mode == MODE_PARALLEL:
            stats.parallel_reads += 1
            latency = base
        elif mode == MODE_SEQUENTIAL:
            if hit:
                stats.one_way_reads += 1
            else:
                # Tag array says miss; no data way is probed.
                stats.tag_only_probes += 1
            latency = base + 1
        elif mode == MODE_ORACLE:
            stats.one_way_reads += 1
            if hit:
                stats.predictions += 1
                stats.correct_predictions += 1
            latency = base
        else:  # MODE_SINGLE: a predicted or direct-mapped way
            probed_way = (plan_way if plan_way >= 0 else dm_way) % self._assoc
            stats.one_way_reads += 1
            latency = base
            if hit:
                stats.predictions += 1
                if probed_way == resident_way:
                    stats.correct_predictions += 1
                else:
                    # Misprediction: second probe of the correct way.
                    stats.second_probes += 1
                    latency = base + 1
                    kind = KIND_MISPREDICTED

        if hit:
            stats.load_hits += 1
            self._touch(index, resident_way)
            final_way = resident_way
        else:
            latency += self._miss_path(addr, block, index, is_store=False)
            final_way = self._fill_way

        kinds = stats.access_kinds
        kinds[kind] = kinds.get(kind, 0) + 1
        writes = self._observe(pc, addr, xor_handle, resident_way, final_way, dm_way)
        if writes:
            stats.table_accesses += writes
        return hit, latency, kind, final_way

    # ------------------------------------------------------------------ #
    # Stores
    # ------------------------------------------------------------------ #

    def store_tuple(self, pc: int, addr: int) -> tuple:
        """Perform a store; mirrors ``DCacheEngine.store`` event for
        event and returns a plain ``(hit, latency)`` (the fast core
        discards store outcomes entirely)."""
        stats = self.stats
        if self.bypassed:
            stats.stores += 1
            self.bypassed_accesses += 1
            return False, self.l2.store_block(addr)
        stats.stores += 1
        block = addr >> self._offset_bits
        index = block & self._set_mask
        tags = self._tags[index]
        try:
            way = tags.index(block)
            hit = True
        except ValueError:
            hit = False
        latency = self.base_latency
        if hit:
            stats.store_hits += 1
            self._touch(index, way)
        else:
            # Write-allocate: fetch the block, then write into it.
            stats.tag_only_probes += 1
            latency += self._miss_path(addr, block, index, is_store=True)
            way = self._fill_way
        stats.store_writes += 1
        self._dirty[index][way] = True
        return hit, latency

    # ------------------------------------------------------------------ #
    # Shared paths
    # ------------------------------------------------------------------ #

    def _touch(self, index: int, way: int) -> None:
        order = self._orders[index]
        order.remove(way)
        order.insert(0, way)

    def _miss_path(self, addr: int, block: int, index: int, is_store: bool) -> int:
        """Fetch from L2/memory and install; returns the added latency."""
        if is_store:
            added = self.l2.store_block(addr)
        else:
            added = self.l2.fetch_block(addr)
        way = self._placement(addr, self.fields)
        stats = self.stats
        if self._uses_victim_list:
            stats.victim_searches += 1
        tags = self._tags[index]
        if way is None:
            try:
                way = tags.index(-1)  # lowest invalid way first
            except ValueError:
                way = self._orders[index][-1]  # the LRU way
        evicted = tags[way]  # prior occupant's block address (or -1)
        dirty = self._dirty[index]
        evicted_dirty = dirty[way]
        tags[way] = block
        dirty[way] = False
        self._touch(index, way)
        stats.fills += 1
        if evicted != -1:
            searches = self._on_eviction(evicted)
            if searches:
                stats.victim_searches += searches
            if evicted_dirty:
                self.l2.absorb_writeback(evicted << self._offset_bits)
        self._fill_way = way
        return added

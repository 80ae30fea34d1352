"""Array-state unified L2 for the fast backend.

Counterpart of :class:`~repro.cache.hierarchy.L2Cache`: it takes the
same inputs and answers the same three calls the L1 engines make
(``fetch_block``, ``store_block``, ``absorb_writeback``) with the same
latencies and the same :class:`~repro.cache.stats.CacheStats` counts,
but keeps each set as a plain list of its resident blocks, MRU-first,
materialized on first touch, and builds no result records.  By the LRU
stack property its resident sets and victims equal those of the
reference's way slots.  Like the reference it keeps no dirty bits: a
write-back to memory is neither timed nor priced.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import MainMemory
from repro.cache.stats import CacheStats
from repro.utils.bitops import bit_mask


class FastL2:
    """Unified write-allocate L2 over flat per-set state.

    Takes ``L2Cache``'s arguments.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        latency: int = 12,
        memory: Optional[MainMemory] = None,
    ) -> None:
        memory = memory if memory is not None else MainMemory()
        self.geometry = geometry
        self.latency = latency
        self.stats = CacheStats()
        self._miss_latency = latency + memory.access_latency(geometry.block_bytes)
        self._offset_bits = geometry.fields.offset_bits
        self._set_mask = bit_mask(geometry.fields.index_bits)
        self._assoc = geometry.associativity
        self._sets = {}

    def fetch_block(self, addr: int) -> int:
        """Fetch a block for an L1 miss; returns added latency in cycles."""
        stats = self.stats
        stats.loads += 1
        if self._access(addr >> self._offset_bits):
            stats.load_hits += 1
            return self.latency
        return self._miss_latency

    def store_block(self, addr: int) -> int:
        """Handle an L1 store miss (write-allocate): fetch for ownership."""
        stats = self.stats
        stats.stores += 1
        if self._access(addr >> self._offset_bits):
            stats.store_hits += 1
            return self.latency
        return self._miss_latency

    def absorb_writeback(self, addr: int) -> None:
        """Accept a dirty L1 victim: counted exactly like a store."""
        self.store_block(addr)

    def _access(self, block: int) -> bool:
        """Touch ``block`` if resident, else fill it; True on a hit."""
        index = block & self._set_mask
        state = self._sets.get(index)
        if state is None:
            state = self._sets[index] = []
        if block in state:
            state.remove(block)
            state.insert(0, block)
            return True
        if len(state) == self._assoc:
            state.pop()  # the LRU block
        state.insert(0, block)
        self.stats.fills += 1
        return False

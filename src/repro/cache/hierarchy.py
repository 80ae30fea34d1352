"""The backing memory hierarchy: unified L2 and main memory.

The paper's Table 1 system: 1MB 8-way L2 with 12-cycle latency, and main
memory at 80 cycles plus 4 cycles per 8 bytes transferred.  L2 accesses
are conventional (the energy techniques apply only to L1), so the L2 is a
plain set-associative cache with fixed latency and per-access energy.

This is the reference tier's L2.  The fast tier runs its array-state
counterpart, :class:`~repro.fastsim.l2.FastL2`, which answers the same
three calls the L1 engines make with equal latencies and counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.sram import SetAssociativeCache
from repro.cache.stats import CacheStats


@dataclass(frozen=True)
class MainMemory:
    """Flat DRAM latency model: ``base + per_chunk * ceil(bytes/chunk)``."""

    base_latency: int = 80
    cycles_per_chunk: int = 4
    chunk_bytes: int = 8

    def access_latency(self, num_bytes: int) -> int:
        """Cycles to transfer ``num_bytes`` from memory."""
        chunks = (num_bytes + self.chunk_bytes - 1) // self.chunk_bytes
        return self.base_latency + self.cycles_per_chunk * chunks


class L2Cache:
    """Unified second-level cache with conventional parallel access.

    Writes are write-allocate; write-backs to memory are neither timed
    nor priced, so the L2 keeps no dirty bits.  Writebacks from L1 are
    accounted for energy but assumed buffered (no latency on the load
    path), matching the usual simulator treatment.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        latency: int = 12,
        memory: Optional[MainMemory] = None,
    ) -> None:
        self.geometry = geometry
        self.latency = latency
        self.memory = memory if memory is not None else MainMemory()
        self.array = SetAssociativeCache(geometry)
        self.stats = CacheStats()

    def fetch_block(self, addr: int) -> int:
        """Fetch a block for an L1 miss; returns added latency in cycles."""
        return self._access(addr, is_store=False)

    def store_block(self, addr: int) -> int:
        """Handle an L1 store miss (write-allocate): fetch for ownership."""
        return self._access(addr, is_store=True)

    def absorb_writeback(self, addr: int) -> None:
        """Accept a dirty L1 victim: counted exactly like a store."""
        self.store_block(addr)

    def _access(self, addr: int, is_store: bool) -> int:
        """Access the L2 for a block, filling from memory on a miss;
        returns the latency in cycles."""
        if is_store:
            self.stats.stores += 1
        else:
            self.stats.loads += 1
        way = self.array.probe(addr)
        if way is not None:
            self.array.touch(addr, way)
            if is_store:
                self.stats.store_hits += 1
            else:
                self.stats.load_hits += 1
            return self.latency
        # Miss: fetch the block from memory.
        self.array.fill(addr)
        self.stats.fills += 1
        return self.latency + self.memory.access_latency(self.geometry.block_bytes)

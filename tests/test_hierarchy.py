"""L2 cache and main memory tests."""

import dataclasses
import random

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache, MainMemory
from repro.fastsim.l2 import FastL2


class TestMainMemory:
    def test_latency_formula(self):
        memory = MainMemory(base_latency=80, cycles_per_chunk=4, chunk_bytes=8)
        # Paper: 80 cycles + 4 per 8 bytes; a 32B block = 80 + 16.
        assert memory.access_latency(32) == 96

    def test_partial_chunk_rounds_up(self):
        memory = MainMemory(base_latency=80, cycles_per_chunk=4, chunk_bytes=8)
        assert memory.access_latency(9) == 80 + 8


class TestL2Cache:
    def setup_method(self):
        self.l2 = L2Cache(CacheGeometry(4096, 8, 32), latency=12)

    def test_miss_goes_to_memory(self):
        assert self.l2.fetch_block(0x1000) == 12 + 96
        assert (self.l2.stats.load_hits, self.l2.stats.fills) == (0, 1)

    def test_hit_latency(self):
        self.l2.fetch_block(0x1000)
        assert self.l2.fetch_block(0x1000) == 12
        assert self.l2.stats.load_hits == 1

    def test_fetch_and_store_paths(self):
        assert self.l2.fetch_block(0x100) == 108
        assert self.l2.fetch_block(0x100) == 12  # now L2-resident
        assert self.l2.store_block(0x100) == 12
        assert self.l2.store_block(0x2100) == 108  # write-allocate miss
        stats = self.l2.stats
        assert (stats.loads, stats.stores, stats.load_hits, stats.store_hits) == (2, 2, 1, 1)

    def test_writeback_installs(self):
        """A dirty L1 victim is counted like a store and installed."""
        assert self.l2.absorb_writeback(0x2000) is None
        assert self.l2.array.probe(0x2000) is not None
        assert (self.l2.stats.stores, self.l2.stats.fills) == (1, 1)

    def test_writeback_absorbed(self):
        """A writeback to an L2-resident block hits it in place, with
        no second fill."""
        self.l2.fetch_block(0x300)
        self.l2.absorb_writeback(0x300)
        stats = self.l2.stats
        assert (stats.stores, stats.store_hits, stats.fills) == (1, 1, 1)

    def test_writeback_counts_like_a_store(self):
        """An absorbed writeback changes the stats and the array exactly
        as a store does, evictions included; only its latency goes
        unseen."""
        stores = L2Cache(CacheGeometry(4096, 8, 32), latency=12)
        # Ten blocks of one set (16 sets x 32 B apart), then two hits.
        blocks = [i * 512 for i in range(10)]
        for addr in blocks + [9 * 512, 8 * 512]:
            self.l2.absorb_writeback(addr)
            stores.store_block(addr)
        assert dataclasses.asdict(self.l2.stats) == dataclasses.asdict(stores.stats)
        resident = [addr for addr in blocks if self.l2.array.probe(addr) is not None]
        assert resident == [addr for addr in blocks if stores.array.probe(addr) is not None]
        assert len(resident) == 8  # two blocks were evicted

    def test_stats_tracked(self):
        self.l2.fetch_block(0x1000)
        self.l2.fetch_block(0x1000)
        assert self.l2.stats.loads == 2
        assert self.l2.stats.load_hits == 1


#: The paper's L2 (4,096 sets, so the reference builds its sets lazily)
#: and a 4 KB 4-way one.
L2_GEOMETRIES = {
    "paper": CacheGeometry(1024 * 1024, 8, 32),
    "4k": CacheGeometry(4096, 4, 32),
}


class TestFastL2:
    """The fast tier's L2 against the reference ``L2Cache``."""

    @pytest.mark.parametrize("name", sorted(L2_GEOMETRIES))
    def test_matches_reference(self, name):
        geometry = L2_GEOMETRIES[name]
        memory = MainMemory(base_latency=60, cycles_per_chunk=2, chunk_bytes=16)
        reference = L2Cache(geometry, latency=9, memory=memory)
        fast = FastL2(geometry, latency=9, memory=memory)
        rng = random.Random(name)
        # Three times as many blocks as ways in each of four sets: conflicts.
        sets = rng.sample(range(geometry.num_sets), 4)
        pool = [
            (tag * geometry.num_sets + index) * geometry.block_bytes
            for tag in range(3 * geometry.associativity)
            for index in sets
        ]
        calls = ("fetch_block", "store_block", "absorb_writeback")
        for _ in range(2_000):
            call = rng.choice(calls)
            addr = rng.choice(pool) + rng.randrange(geometry.block_bytes)
            assert getattr(fast, call)(addr) == getattr(reference, call)(addr), call
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(reference.stats)
        # The premise: the stream filled more blocks than its four sets
        # hold, so it evicted.
        assert fast.stats.fills > len(sets) * geometry.associativity

"""Functional cache-array behaviour: geometry, sets, fills, evictions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.sram import SetAssociativeCache


class TestGeometry:
    def test_paper_geometry(self):
        g = CacheGeometry(16 * 1024, 4, 32)
        assert g.num_sets == 128
        assert g.num_blocks == 512
        assert g.tag_bits == 32 - 7 - 5
        assert g.describe() == "16K 4-way 32B"

    def test_direct_mapped_geometry(self):
        g = CacheGeometry(16 * 1024, 1, 32)
        assert g.num_sets == 512
        assert g.fields.way_bits == 0

    @pytest.mark.parametrize("size,assoc,block", [(1000, 4, 32), (16384, 3, 32), (16384, 4, 24)])
    def test_rejects_non_powers(self, size, assoc, block):
        with pytest.raises(ValueError):
            CacheGeometry(size, assoc, block)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            CacheGeometry(64, 4, 32)


class TestBasicOperation:
    def setup_method(self):
        self.cache = SetAssociativeCache(CacheGeometry(256, 2, 32))  # 4 sets

    def test_cold_miss_then_hit(self):
        assert self.cache.probe(0x100) is None
        self.cache.fill(0x100)
        assert self.cache.probe(0x100) is not None

    def test_same_block_offsets_hit(self):
        self.cache.fill(0x100)
        assert self.cache.probe(0x100 + 31) is not None
        assert self.cache.probe(0x100 + 32) is None

    def test_forced_way_placement(self):
        result = self.cache.fill(0x100, way=1)
        assert result.way == 1
        assert self.cache.probe(0x100) == 1

    def test_fill_prefers_invalid_way(self):
        stride = 4 * 32  # sets * block = one full index wrap
        assert self.cache.fill(0).way == 0
        result = self.cache.fill(stride)
        assert (result.way, result.eviction) == (1, None)
        # Right after a forced fill the lowest invalid way still comes
        # first, although the recency order's tail is another way.
        cache = SetAssociativeCache(CacheGeometry(512, 4, 32))  # 4 sets
        cache.fill(0, way=2)
        assert [cache.fill(n * stride).way for n in (1, 2, 3)] == [0, 1, 3]

    def test_eviction_when_full(self):
        # 2-way set: three distinct tags to one set force an eviction.
        stride = 4 * 32  # sets * block = one full index wrap
        self.cache.fill(0 * stride)
        self.cache.fill(1 * stride)
        result = self.cache.fill(2 * stride)
        assert result.eviction is not None
        assert result.eviction.block_addr in (0, stride >> 5)

    def test_lru_eviction_order(self):
        stride = 4 * 32
        self.cache.fill(0)
        self.cache.fill(stride)
        way = self.cache.probe(0)
        self.cache.touch(0, way)  # 0 is now MRU
        result = self.cache.fill(2 * stride)
        assert result.eviction.block_addr == stride >> 5

    def test_refill_resident_block_is_noop_eviction(self):
        self.cache.fill(0x100)
        way = self.cache.probe(0x100)
        result = self.cache.fill(0x100, way=(way + 1) % 2)
        assert result.eviction is None
        assert result.way == way == self.cache.probe(0x100)

    def test_mark_dirty_and_eviction_reports_it(self):
        stride = 4 * 32
        self.cache.fill(0)
        self.cache.mark_dirty(0)
        self.cache.fill(stride)
        result = self.cache.fill(2 * stride)
        evicted_dirty = result.eviction.dirty
        # The evicted block is the LRU (block 0, dirty).
        assert result.eviction.block_addr == 0
        assert evicted_dirty

    def test_mark_dirty_missing_raises(self):
        with pytest.raises(KeyError):
            self.cache.mark_dirty(0xFACE)

    def test_reconfigure_flushes_dirty_blocks_in_set_way_order(self):
        stride = 4 * 32
        # Touch set 2 before set 0, and fill set 0's way 1 before way 0.
        self.cache.fill(2 * 32)
        self.cache.fill(stride, way=1)
        self.cache.fill(0)
        self.cache.fill(32)  # set 1 stays clean
        for addr in (stride, 2 * 32, 0):
            self.cache.mark_dirty(addr)
        new_geometry = CacheGeometry(512, 2, 32)  # 8 sets
        assert self.cache.reconfigure(new_geometry) == [0, stride >> 5, 2]
        assert self.cache.geometry == new_geometry
        assert all(self.cache.probe(a) is None for a in (0, 32, 2 * 32, stride))
        # The flushed array fills and evicts like a new one.
        fresh = SetAssociativeCache(new_geometry)
        addresses = [n * 8 * 32 for n in (0, 1, 2, 0, 3)] + [32, 3 * 8 * 32]
        assert [self.cache.fill(a) for a in addresses] == [fresh.fill(a) for a in addresses]


class TestCapacityInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = SetAssociativeCache(CacheGeometry(512, 2, 32))
        for addr in addresses:
            if cache.probe(addr) is None:
                cache.fill(addr)
        resident = {addr >> 5 for addr in addresses if cache.probe(addr) is not None}
        assert len(resident) <= cache.geometry.num_blocks

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=200))
    def test_most_recent_fill_is_resident(self, addresses):
        cache = SetAssociativeCache(CacheGeometry(512, 2, 32))
        for addr in addresses:
            cache.fill(addr)
            assert cache.probe(addr) is not None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0x3FFF), min_size=2, max_size=200))
    def test_direct_mapped_resident_block_is_at_its_index(self, addresses):
        cache = SetAssociativeCache(CacheGeometry(512, 1, 32))
        for addr in addresses:
            cache.fill(addr)
        # In a DM cache every resident block sits in way 0 of its set.
        for addr in addresses:
            way = cache.probe(addr)
            if way is not None:
                assert way == 0


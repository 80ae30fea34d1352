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
        assert self.cache.way_of(0x100) == 1

    def test_fill_prefers_invalid_way(self):
        self.cache.fill(0x0)
        result = self.cache.fill(0x0 + 4 * 32)  # same set (4 sets * 32B)
        assert result.eviction is None

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
        way = self.cache.way_of(0x100)
        result = self.cache.fill(0x100, way=(way + 1) % 2)
        assert result.eviction is None
        assert result.way == way == self.cache.way_of(0x100)

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

    def test_invalidate(self):
        self.cache.fill(0x100)
        assert self.cache.invalidate(0x100)
        assert self.cache.probe(0x100) is None
        assert not self.cache.invalidate(0x100)

    def test_resident_blocks_counts(self):
        assert self.cache.resident_blocks() == 0
        self.cache.fill(0)
        self.cache.fill(0x1000)
        assert self.cache.resident_blocks() == 2


class TestCapacityInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = SetAssociativeCache(CacheGeometry(512, 2, 32))
        for addr in addresses:
            if cache.probe(addr) is None:
                cache.fill(addr)
        assert cache.resident_blocks() <= cache.geometry.num_blocks

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


class TestLazySets:
    """Large arrays (the 4096-set L2) materialize sets on first touch."""

    def test_lazy_array_behaves_like_eager(self):
        from repro.cache.sram import _LAZY_SETS_THRESHOLD, _LazySets

        geometry = CacheGeometry(_LAZY_SETS_THRESHOLD * 4 * 32, 4, 32)
        cache = SetAssociativeCache(geometry)
        assert isinstance(cache.sets, _LazySets)
        cache.fill(0x1234)
        assert cache.probe(0x1234) is not None
        assert cache.resident_blocks() == 1  # __iter__ materializes

    def test_lazy_sets_slice_materializes(self):
        from repro.cache.cacheset import CacheSet
        from repro.cache.sram import _LAZY_SETS_THRESHOLD

        geometry = CacheGeometry(_LAZY_SETS_THRESHOLD * 4 * 32, 4, 32)
        cache = SetAssociativeCache(geometry)
        sliced = cache.sets[7:10]
        assert len(sliced) == 3
        assert all(isinstance(s, CacheSet) for s in sliced)

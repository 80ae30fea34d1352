"""Unit and property tests for address-field decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.bitops import (
    AddressFields,
    bit_mask,
    extract_bits,
    is_power_of_two,
    log2_exact,
)


class TestPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, -1, 3, 5, 6, 7, 9, 12, 1000):
            assert not is_power_of_two(value)

    def test_log2_exact_round_trip(self):
        for exponent in range(24):
            assert log2_exact(1 << exponent) == exponent

    def test_log2_exact_rejects_non_power(self):
        with pytest.raises(ValueError):
            log2_exact(12)

    def test_log2_exact_rejects_zero(self):
        with pytest.raises(ValueError):
            log2_exact(0)


class TestBitMask:
    def test_zero_bits(self):
        assert bit_mask(0) == 0

    def test_small_masks(self):
        assert bit_mask(1) == 1
        assert bit_mask(4) == 0xF
        assert bit_mask(9) == 0x1FF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bit_mask(-1)

    def test_extract_bits(self):
        assert extract_bits(0b101100, 2, 3) == 0b011

    def test_extract_bits_negative_low_rejected(self):
        with pytest.raises(ValueError):
            extract_bits(5, -1, 2)


class TestAddressFields:
    def setup_method(self):
        # 32B blocks, 128 sets, 4 ways: the paper's 16K 4-way cache.
        self.fields = AddressFields(offset_bits=5, index_bits=7, way_bits=2)

    def test_index_range(self):
        assert self.fields.index(0) == 0
        assert self.fields.index(127 * 32) == 127
        assert self.fields.index(128 * 32) == 0  # wraps

    def test_tag_excludes_index_and_offset(self):
        addr = (0xABC << 12) | (5 << 5) | 17
        assert self.fields.tag(addr) == 0xABC
        assert self.fields.index(addr) == 5

    def test_block_address_drops_offset(self):
        assert self.fields.block_address(0x1234) == 0x1234 >> 5

    def test_direct_mapped_way_uses_low_tag_bits(self):
        # DM way = low log2(N) bits of the tag (paper section 2.1).
        for tag_low in range(4):
            addr = ((16 | tag_low) << 12) | (3 << 5)
            assert self.fields.direct_mapped_way(addr) == tag_low

    def test_direct_mapped_way_zero_ways(self):
        fields = AddressFields(offset_bits=5, index_bits=9, way_bits=0)
        assert fields.direct_mapped_way(0xDEADBEEF) == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_rebuild_round_trip(self, addr):
        f = self.fields
        rebuilt = (
            (f.tag(addr) << (f.offset_bits + f.index_bits))
            | (f.index(addr) << f.offset_bits)
            | (addr & bit_mask(f.offset_bits))
        )
        assert rebuilt == addr

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_dm_position_implies_same_set(self, addr):
        """Two addresses with equal low 9 block bits share index and DM way."""
        f = self.fields
        other = addr ^ (1 << 20)  # flip a high tag bit only
        assert f.index(addr) == f.index(other)
        assert f.direct_mapped_way(addr) != f.direct_mapped_way(other) or (
            (addr >> 5) & 0x180
        ) == ((other >> 5) & 0x180)

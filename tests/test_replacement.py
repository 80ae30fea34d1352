"""LRU replacement: the victim order of :class:`SetAssociativeCache`."""

from hypothesis import given, strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.sram import SetAssociativeCache

#: Addresses ``n * STRIDE`` share set 0 of the one-set arrays below, and
#: block address ``n``.
STRIDE = 32


def _full_set(ways):
    """A one-set array whose ways hold blocks ``0 .. ways-1``, block
    ``n`` in way ``n``, filled in way order."""
    cache = SetAssociativeCache(CacheGeometry(ways * STRIDE, ways, STRIDE))
    for n in range(ways):
        assert cache.fill(n * STRIDE).way == n
    return cache


def _victim(cache):
    """The way the next fill of a new block takes, and the block it evicts."""
    result = cache.fill(0x100 * STRIDE)
    return result.way, result.eviction.block_addr


class TestLru:
    def test_first_filled_way_is_first_victim(self):
        # Every fill counts as a use, so a set filled in way order
        # evicts way 0 first.
        assert _victim(_full_set(4)) == (0, 0)

    def test_touch_moves_to_mru(self):
        cache = _full_set(4)
        cache.touch(0, 0)
        assert _victim(cache) == (1, 1)

    def test_victim_is_least_recent(self):
        cache = _full_set(4)
        for way in (0, 1, 2, 3, 0, 1):
            cache.touch(way * STRIDE, way)
        assert _victim(cache) == (2, 2)

    def test_fill_counts_as_use(self):
        cache = _full_set(2)
        assert cache.fill(0x40 * STRIDE).way == 0
        assert _victim(cache) == (1, 1)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
    def test_victim_never_most_recent(self, touches):
        cache = _full_set(4)
        for way in touches:
            cache.touch(way * STRIDE, way)
        assert _victim(cache)[0] != touches[-1]

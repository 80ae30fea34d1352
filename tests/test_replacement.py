"""LRU replacement: the victim order of :class:`CacheSet`."""

from hypothesis import given, strategies as st

from repro.cache.cacheset import CacheSet


def _full_set(fills):
    """A set whose ways were installed in ``fills`` order (block = way)."""
    cache_set = CacheSet(len(fills))
    for way in fills:
        cache_set.install(way, way)
    return cache_set


class TestLru:
    def test_initial_victim_is_last_way(self):
        # Before any reference the recency order is way order.
        cache_set = CacheSet(4)
        assert cache_set.order == [0, 1, 2, 3]
        for way, block in enumerate(cache_set.ways):
            block.load(way)
        assert cache_set.choose_victim() == 3

    def test_touch_moves_to_mru(self):
        cache_set = _full_set([0, 1, 2, 3])
        cache_set.touch(0)
        assert cache_set.order[0] == 0
        assert cache_set.choose_victim() == 1

    def test_victim_is_least_recent(self):
        cache_set = _full_set([0, 1, 2, 3])
        for way in (0, 1, 2, 3, 0, 1):
            cache_set.touch(way)
        assert cache_set.choose_victim() == 2

    def test_fill_counts_as_use(self):
        cache_set = _full_set([0, 1])
        assert cache_set.choose_victim() == 0
        cache_set.install(0, 0x40)
        assert cache_set.order == [0, 1]
        assert cache_set.choose_victim() == 1

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
    def test_victim_never_most_recent(self, touches):
        cache_set = _full_set([0, 1, 2, 3])
        for way in touches:
            cache_set.touch(way)
        assert cache_set.choose_victim() != touches[-1]

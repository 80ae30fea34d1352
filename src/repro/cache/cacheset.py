"""One cache set: N ways plus their LRU order."""

from __future__ import annotations

from typing import List, Optional

from repro.cache.block import CacheBlock


class CacheSet:
    """A set of ``associativity`` blocks under true LRU, the paper's
    replacement policy.

    ``order`` lists the ways MRU-first: a reference (hit or fill) moves
    a way to the front, and a full set evicts the tail.  The set
    exposes primitive operations (find, choose victim, install);
    hit/miss accounting and probe-energy accounting happen above this
    layer.
    """

    __slots__ = ("ways", "order")

    def __init__(self, associativity: int) -> None:
        self.ways: List[CacheBlock] = [CacheBlock() for _ in range(associativity)]
        self.order: List[int] = list(range(associativity))

    def find(self, block_addr: int) -> Optional[int]:
        """Return the way holding ``block_addr`` or None (no state change)."""
        for way, block in enumerate(self.ways):
            if block.valid and block.block_addr == block_addr:
                return way
        return None

    def invalid_way(self) -> Optional[int]:
        """Return the lowest invalid way, or None when the set is full."""
        for way, block in enumerate(self.ways):
            if not block.valid:
                return way
        return None

    def choose_victim(self) -> int:
        """Return the way a fill should use: the lowest invalid way,
        else the least recently used one."""
        way = self.invalid_way()
        if way is not None:
            return way
        return self.order[-1]

    def touch(self, way: int) -> None:
        """Record a reference to ``way``: it becomes the MRU way."""
        self.order.remove(way)
        self.order.insert(0, way)

    def install(self, way: int, block_addr: int) -> Optional[CacheBlock]:
        """Install ``block_addr`` into ``way``; the fill counts as a use.

        Returns:
            A copy-like reference to the evicted block's prior state as a
            ``CacheBlock`` snapshot, or None when the way was invalid.
        """
        block = self.ways[way]
        evicted: Optional[CacheBlock] = None
        if block.valid:
            evicted = CacheBlock()
            evicted.valid = True
            evicted.block_addr = block.block_addr
            evicted.dirty = block.dirty
        block.load(block_addr)
        self.touch(way)
        return evicted

    def valid_count(self) -> int:
        """Return the number of valid ways."""
        return sum(1 for block in self.ways if block.valid)

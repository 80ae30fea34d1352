"""The set-associative tag/data array model.

:class:`SetAssociativeCache` is a *functional* model: it answers "which
way holds this address" and manages fills/evictions.  It is shared by the
L1 engines in :mod:`repro.core` (which add probe scheduling and energy)
and by the L2 model in :mod:`repro.cache.hierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry


@dataclass(frozen=True)
class EvictionRecord:
    """What a fill displaced.

    Attributes:
        block_addr: block-aligned address of the evicted block.
        dirty: whether a write-back to the next level is required.
    """

    block_addr: int
    dirty: bool


@dataclass(frozen=True)
class FillResult:
    """Outcome of installing a block.

    Attributes:
        way: way the block was installed into.
        eviction: the displaced block, if any.
    """

    way: int
    eviction: Optional[EvictionRecord]


class _LazySets(list):
    """Set list materializing each :class:`CacheSet` on first access.

    Safe because per-set state is fully independent, so creation
    *order* never influences any result.  Used for large arrays (the
    4096-set L2) where building every set up front dominates simulator
    construction while a typical run touches a fraction of them.
    """

    __slots__ = ("_associativity",)

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__([None] * num_sets)
        self._associativity = associativity

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cache_set = list.__getitem__(self, index)
        if cache_set is None:
            cache_set = CacheSet(self._associativity)
            list.__setitem__(self, index, cache_set)
        return cache_set

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


#: Above this set count the array materializes sets lazily.
_LAZY_SETS_THRESHOLD = 1024


class SetAssociativeCache:
    """Functional set-associative cache array.

    All addresses passed in are full byte addresses; the geometry's field
    decomposition is applied internally.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "") -> None:
        self.geometry = geometry
        self.fields = geometry.fields
        self.name = name or geometry.describe()
        self.sets = self._build_sets(geometry)

    @staticmethod
    def _build_sets(geometry: CacheGeometry) -> List[CacheSet]:
        if geometry.num_sets >= _LAZY_SETS_THRESHOLD:
            return _LazySets(geometry.num_sets, geometry.associativity)
        return [CacheSet(geometry.associativity) for _ in range(geometry.num_sets)]

    # ------------------------------------------------------------------ #
    # Runtime reconfiguration
    # ------------------------------------------------------------------ #

    def reconfigure(self, new_geometry: CacheGeometry) -> List[int]:
        """Flush the array and rebuild it with ``new_geometry``.

        Invalidate-all semantics (see :mod:`repro.core.interval`): every
        resident block is dropped and the LRU order restarts fresh,
        exactly as if the array had just been constructed — the property
        that keeps runtime resizing byte-identical across backend tiers.
        Statistics live above this layer and are untouched.

        Returns:
            Block addresses of the *dirty* blocks that were dropped, in
            deterministic (set-major, way-minor) order, so callers
            modeling a writeback path can forward them to the next
            level before they are lost.
        """
        dirty: List[int] = []
        raw = self.sets
        for position in range(len(raw)):
            # Peek without materializing lazily-built sets: a set that
            # was never touched holds nothing to flush.
            cache_set = list.__getitem__(raw, position)
            if cache_set is None:
                continue
            for block in cache_set.ways:
                if block.valid and block.dirty:
                    dirty.append(block.block_addr)
        self.geometry = new_geometry
        self.fields = new_geometry.fields
        self.sets = self._build_sets(new_geometry)
        return dirty

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def probe(self, addr: int) -> Optional[int]:
        """Tag-array lookup: return the matching way or None.

        Does not update the LRU order; callers decide when a probe
        counts as a use (e.g. the tag check of a selective-DM access that
        will be retried must still mark the block referenced exactly once).
        """
        index = self.fields.index(addr)
        return self.sets[index].find(self.fields.block_address(addr))

    def touch(self, addr: int, way: int) -> None:
        """Mark ``way`` of the set containing ``addr`` as referenced."""
        self.sets[self.fields.index(addr)].touch(way)

    def contains(self, addr: int) -> bool:
        """Return True when ``addr``'s block is resident."""
        return self.probe(addr) is not None

    def way_of(self, addr: int) -> Optional[int]:
        """Alias of :meth:`probe` used where intent is introspection."""
        return self.probe(addr)

    def block_at(self, addr: int):
        """Return the resident :class:`CacheBlock` for ``addr`` or None."""
        index = self.fields.index(addr)
        way = self.sets[index].find(self.fields.block_address(addr))
        if way is None:
            return None
        return self.sets[index].ways[way]

    # ------------------------------------------------------------------ #
    # Fill / modify
    # ------------------------------------------------------------------ #

    def fill(self, addr: int, way: Optional[int] = None) -> FillResult:
        """Install ``addr``'s block.

        Args:
            addr: byte address being filled.
            way: forced placement way (selective-DM's direct-mapping
                placement); when None the set picks an invalid way or the
                LRU victim.

        Returns:
            The chosen way and any eviction.
        """
        index = self.fields.index(addr)
        cache_set = self.sets[index]
        block_addr = self.fields.block_address(addr)
        existing = cache_set.find(block_addr)
        if existing is not None:
            # Refill of a resident block: it stays in place.
            cache_set.touch(existing)
            return FillResult(way=existing, eviction=None)
        if way is None:
            way = cache_set.choose_victim()
        evicted_block = cache_set.install(way, block_addr)
        eviction = None
        if evicted_block is not None:
            eviction = EvictionRecord(
                block_addr=evicted_block.block_addr,
                dirty=evicted_block.dirty,
            )
        return FillResult(way=way, eviction=eviction)

    def mark_dirty(self, addr: int) -> None:
        """Set the dirty bit of the resident block holding ``addr``.

        Raises:
            KeyError: if the block is not resident (stores only write
            after a hit or fill).
        """
        block = self.block_at(addr)
        if block is None:
            raise KeyError(f"mark_dirty on non-resident address {addr:#x}")
        block.dirty = True

    def invalidate(self, addr: int) -> bool:
        """Drop ``addr``'s block if resident; returns True when dropped."""
        index = self.fields.index(addr)
        cache_set = self.sets[index]
        way = cache_set.find(self.fields.block_address(addr))
        if way is None:
            return False
        cache_set.ways[way].reset()
        return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def resident_blocks(self) -> int:
        """Return the number of valid blocks (for tests/examples)."""
        return sum(s.valid_count() for s in self.sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetAssociativeCache({self.name})"

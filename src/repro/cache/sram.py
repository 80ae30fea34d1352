"""The set-associative tag/data array model.

:class:`SetAssociativeCache` is a *functional* model: it answers "which
way holds this address" and manages fills/evictions.  It is shared by the
L1 engines in :mod:`repro.core` (which add probe scheduling and energy)
and by the L2 model in :mod:`repro.cache.hierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.geometry import CacheGeometry
from repro.utils.bitops import bit_mask


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


class SetAssociativeCache:
    """Functional set-associative cache array under true LRU, the
    paper's replacement policy.

    All addresses passed in are full byte addresses; the geometry's field
    decomposition is applied internally.  Each set is three plain lists,
    built on the set's first fill: the block-aligned address each way
    holds (None when invalid), each way's dirty bit, and the ways in
    recency order, most recent first.  A reference (hit or fill) moves a
    way to the front of that order; a fill takes the lowest invalid way,
    else the tail.  Hit/miss accounting and probe energy happen above
    this layer.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self._build(geometry)

    def _build(self, geometry: CacheGeometry) -> None:
        """Start empty with ``geometry``: every set unbuilt."""
        self.geometry = geometry
        self._offset_bits = geometry.fields.offset_bits
        self._set_mask = bit_mask(geometry.fields.index_bits)
        #: Per set ``(blocks, dirty, order)``, or None before its first fill.
        self._sets: List[Optional[tuple]] = [None] * geometry.num_sets

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
        dirty = [
            block
            for entry in self._sets
            if entry is not None
            for block, is_dirty in zip(entry[0], entry[1])
            if is_dirty
        ]
        self._build(new_geometry)
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
        block_addr = addr >> self._offset_bits
        entry = self._sets[block_addr & self._set_mask]
        if entry is None or block_addr not in entry[0]:
            return None
        return entry[0].index(block_addr)

    def touch(self, addr: int, way: int) -> None:
        """Mark ``way`` of the set containing ``addr`` as referenced;
        the way must hold a resident block."""
        order = self._sets[(addr >> self._offset_bits) & self._set_mask][2]
        order.remove(way)
        order.insert(0, way)

    # ------------------------------------------------------------------ #
    # Fill / modify
    # ------------------------------------------------------------------ #

    def fill(self, addr: int, way: Optional[int] = None) -> FillResult:
        """Install ``addr``'s block; the fill counts as a use.

        Args:
            addr: byte address being filled.
            way: forced placement way (selective-DM's direct-mapping
                placement); when None the set picks its lowest invalid
                way, else the LRU victim.

        Returns:
            The chosen way and any eviction.
        """
        block_addr = addr >> self._offset_bits
        index = block_addr & self._set_mask
        entry = self._sets[index]
        if entry is None:
            ways = self.geometry.associativity
            entry = self._sets[index] = ([None] * ways, [False] * ways, list(range(ways)))
        blocks, dirty, order = entry
        eviction = None
        if block_addr in blocks:
            # Refill of a resident block: it stays in place.
            way = blocks.index(block_addr)
        else:
            if way is None:
                way = blocks.index(None) if None in blocks else order[-1]
            victim = blocks[way]
            if victim is not None:
                eviction = EvictionRecord(block_addr=victim, dirty=dirty[way])
            blocks[way] = block_addr
            dirty[way] = False
        order.remove(way)
        order.insert(0, way)
        return FillResult(way=way, eviction=eviction)

    def mark_dirty(self, addr: int) -> None:
        """Set the dirty bit of the resident block holding ``addr``.

        Raises:
            KeyError: if the block is not resident (stores only write
            after a hit or fill).
        """
        way = self.probe(addr)
        if way is None:
            raise KeyError(f"mark_dirty on non-resident address {addr:#x}")
        self._sets[(addr >> self._offset_bits) & self._set_mask][1][way] = True

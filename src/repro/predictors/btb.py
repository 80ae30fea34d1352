"""Branch target buffer with optional way fields.

The paper's i-cache scheme (section 2.3) adds ``log2 N`` bits to each
BTB entry so that a predicted-taken branch supplies both the next fetch
address and the way it lives in ("next-line-set-prediction" extended).
We model a direct-mapped, tagged BTB; a tag mismatch is a BTB miss, in
which case fetch falls back to parallel i-cache access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


@dataclass
class BtbEntry:
    """One BTB entry: predicted target plus the paper's way field."""

    tag: int
    target: int
    way: Optional[int] = None


class BranchTargetBuffer:
    """Direct-mapped tagged BTB."""

    def __init__(self, entries: int = 2048) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self._index_bits = log2_exact(entries)
        self._index_mask = bit_mask(self._index_bits)
        self._table: List[Optional[BtbEntry]] = [None] * entries

    def _split(self, pc: int) -> tuple:
        word = pc >> 2
        return word & self._index_mask, word >> self._index_bits

    def lookup(self, pc: int) -> Optional[BtbEntry]:
        """Return the entry for ``pc`` on a tag match, else None."""
        index, tag = self._split(pc)
        entry = self._table[index]
        if entry is not None and entry.tag == tag:
            return entry
        return None

    def update(self, pc: int, target: int, way: Optional[int] = None) -> None:
        """Install or refresh the entry for a taken branch."""
        index, tag = self._split(pc)
        entry = self._table[index]
        if entry is not None and entry.tag == tag:
            entry.target = target
            if way is not None:
                entry.way = way
        else:
            self._table[index] = BtbEntry(tag=tag, target=target, way=way)

    def update_way(self, pc: int, way: int) -> None:
        """Refresh only the way field (after the i-cache resolves it)."""
        index, tag = self._split(pc)
        entry = self._table[index]
        if entry is not None and entry.tag == tag:
            entry.way = way

"""Generic PC/handle-indexed prediction tables.

Two flavors, both untagged and direct-mapped as in the paper (aliasing
between handles is part of the modeled behavior, which is why a larger
table "does not improve accuracy" — section 4.2):

* :class:`WayPredictionTable` — stores a predicted way number per entry
  (plus a valid bit so a never-trained entry yields "no prediction").
* :class:`CounterTable` — stores an n-bit saturating counter per entry;
  used for the selective-DM mapping choice.
"""

from __future__ import annotations

from typing import List, Optional

from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


class WayPredictionTable:
    """Untagged table of way numbers indexed by a hashed handle."""

    def __init__(self, entries: int = 1024) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self._index_mask = bit_mask(log2_exact(entries))
        self._ways: List[int] = [0] * entries
        self._valid: List[bool] = [False] * entries

    def _index(self, handle: int) -> int:
        return handle & self._index_mask

    def predict(self, handle: int) -> Optional[int]:
        """Return the stored way for ``handle`` or None if never trained."""
        index = self._index(handle)
        if not self._valid[index]:
            return None
        return self._ways[index]

    def train(self, handle: int, way: int) -> bool:
        """Record the way ``handle``'s access actually matched.

        Returns:
            True when the entry actually changed (a physical write, for
            energy accounting); unchanged entries cost nothing.
        """
        index = self._index(handle)
        if self._valid[index] and self._ways[index] == way:
            return False
        self._ways[index] = way
        self._valid[index] = True
        return True


class CounterTable:
    """Untagged table of n-bit saturating counters indexed by a handle.

    The selective-DM usage: counter values 0 and 1 flag direct-mapped
    probing; 2 and 3 flag set-associative probing (section 2.2.2).
    """

    def __init__(self, entries: int = 1024, bits: int = 2, initial: int = 0) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if bits < 1:
            raise ValueError("counter bits must be >= 1")
        self.entries = entries
        self.maximum = (1 << bits) - 1
        if not 0 <= initial <= self.maximum:
            raise ValueError(f"initial {initial} outside [0, {self.maximum}]")
        self._index_mask = bit_mask(log2_exact(entries))
        self._counters: List[int] = [initial] * entries

    def _index(self, handle: int) -> int:
        return handle & self._index_mask

    def read(self, handle: int) -> int:
        """Return the counter value for ``handle``."""
        return self._counters[self._index(handle)]

    def msb_set(self, handle: int) -> bool:
        """True when the counter's upper half is reached (value >= 2 for 2-bit)."""
        return self.read(handle) > self.maximum // 2

    def increment(self, handle: int) -> bool:
        """Saturating increment; returns True when the value changed."""
        index = self._index(handle)
        if self._counters[index] >= self.maximum:
            return False
        self._counters[index] += 1
        return True

    def decrement(self, handle: int) -> bool:
        """Saturating decrement; returns True when the value changed."""
        index = self._index(handle)
        if self._counters[index] <= 0:
            return False
        self._counters[index] -= 1
        return True

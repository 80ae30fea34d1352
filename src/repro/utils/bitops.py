"""Bit-level helpers used by the cache and predictor models.

Cache indexing in this project always follows the classic decomposition of
a physical address::

    +----------------------- tag -----------------+--- index ---+- offset -+
    |                                              | log2(sets)  | log2(B)  |

where ``B`` is the block size in bytes.  :class:`AddressFields` captures
that decomposition once per cache geometry so the hot access path performs
only shifts and masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of ``value``, requiring it to be an exact power of two.

    Raises:
        ValueError: if ``value`` is not a positive power of two.
    """
    if not is_power_of_two(value):
        raise ValueError(f"expected a power of two, got {value!r}")
    return value.bit_length() - 1


def bit_mask(num_bits: int) -> int:
    """Return a mask with the low ``num_bits`` bits set."""
    if num_bits < 0:
        raise ValueError(f"number of bits must be non-negative, got {num_bits}")
    return (1 << num_bits) - 1


def extract_bits(value: int, low: int, count: int) -> int:
    """Return ``count`` bits of ``value`` starting at bit ``low``."""
    if low < 0:
        raise ValueError(f"low bit must be non-negative, got {low}")
    return (value >> low) & bit_mask(count)


@dataclass(frozen=True)
class AddressFields:
    """Precomputed shift/mask decomposition of addresses for one geometry.

    Attributes:
        offset_bits: log2 of the block size in bytes.
        index_bits: log2 of the number of sets.
        way_bits: log2 of the associativity; used by selective
            direct-mapping, which extends the index with this many tag bits
            to pick the direct-mapping way (paper section 2.1).
    """

    offset_bits: int
    index_bits: int
    way_bits: int

    def block_address(self, addr: int) -> int:
        """Return the block-aligned address (offset bits dropped)."""
        return addr >> self.offset_bits

    def index(self, addr: int) -> int:
        """Return the set index of ``addr``."""
        return (addr >> self.offset_bits) & bit_mask(self.index_bits)

    def tag(self, addr: int) -> int:
        """Return the tag of ``addr``."""
        return addr >> (self.offset_bits + self.index_bits)

    def direct_mapped_way(self, addr: int) -> int:
        """Return the direct-mapping way for ``addr``.

        The paper identifies the direct-mapping way with "the address's
        index bits extended with log2 N bits borrowed from the tag": the
        low ``way_bits`` bits of the tag select the way.
        """
        if self.way_bits == 0:
            return 0
        return self.tag(addr) & bit_mask(self.way_bits)

    # ------------------------------------------------------------------ #
    # Batched decode (the fast simulation backend's encoding step)
    # ------------------------------------------------------------------ #

    def decode_blocks(self, addrs: "Sequence[int]") -> "List[int]":
        """Vectorized :meth:`block_address` over a whole address array.

        The fast backend decodes every address exactly once, up front,
        so its per-access loop touches only precomputed integers.
        """
        shift = self.offset_bits
        return [addr >> shift for addr in addrs]

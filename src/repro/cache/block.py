"""Cache block (line) state."""

from __future__ import annotations


class CacheBlock:
    """One cache line's bookkeeping state.

    We track the block-aligned address rather than the tag so eviction
    records can report full addresses to the victim list (paper
    section 2.2.2) without re-assembling tag and index.
    """

    __slots__ = ("valid", "block_addr", "dirty")

    def __init__(self) -> None:
        self.valid = False
        self.block_addr = -1
        self.dirty = False

    def reset(self) -> None:
        """Invalidate the block."""
        self.valid = False
        self.block_addr = -1
        self.dirty = False

    def load(self, block_addr: int) -> None:
        """Install a new block."""
        self.valid = True
        self.block_addr = block_addr
        self.dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.valid:
            return "CacheBlock(invalid)"
        flags = "D" if self.dirty else "-"
        return f"CacheBlock(addr={self.block_addr:#x}, {flags})"

"""Return address stack with way fields.

"For function returns, we augment the return address stack (RAS) to
provide not only the return address but also the return address's way"
(section 2.3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class ReturnAddressStack:
    """Fixed-depth circular return stack.

    Overflow overwrites the oldest entry (standard hardware behavior);
    underflow returns None and the fetch unit falls back to parallel
    access.
    """

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self._stack: List[Tuple[int, Optional[int]]] = []

    def push(self, return_addr: int, way: Optional[int] = None) -> None:
        """Push a return address (on a call) with its predicted way."""
        if len(self._stack) == self.depth:
            del self._stack[0]
        self._stack.append((return_addr, way))

    def pop(self) -> Optional[Tuple[int, Optional[int]]]:
        """Pop the predicted (return address, way); None on underflow."""
        if not self._stack:
            return None
        return self._stack.pop()

    def update_top_way(self, way: int) -> None:
        """Refresh the way field of the top entry (after a fill moves it)."""
        if self._stack:
            addr, _ = self._stack[-1]
            self._stack[-1] = (addr, way)

    def __len__(self) -> int:
        return len(self._stack)

"""Table-state branch/target/return predictors for the fast core.

The reference fetch unit resolves every control transfer through a
small object graph — :class:`~repro.predictors.hybrid.HybridPredictor`
delegating to bimodal/gshare component objects, a
:class:`~repro.predictors.btb.BranchTargetBuffer` of ``BtbEntry``
dataclasses, a tuple-stack RAS — which costs several method dispatches
and attribute walks per branch.  This module re-expresses the same
state machines as flat tables on ``__slots__`` classes so the fast
fetch unit (:mod:`repro.fastsim.fetch`) resolves a redirect with plain
list indexing.

Equivalence contract: every structure here transitions bit-for-bit like
its reference counterpart — same counter updates, same chooser and
history behavior, same replacement on BTB tag conflicts and RAS
overflow.  The differential suite drives both fetch paths over
identical traces and asserts the resulting pipelines never diverge by a
single cycle.

``Optional[int]`` way fields are encoded as ``-1`` (no way) so the
tables stay homogeneous int lists; the fetch unit converts back at the
engine boundary.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


class FastHybridPredictor:
    """Fused predict+train hybrid direction predictor.

    One :meth:`predict_train` call performs exactly the reference
    sequence ``HybridPredictor.predict(pc)`` followed by
    ``HybridPredictor.train(pc, taken)`` — component predictions are
    computed once under the pre-update state, the chooser moves toward
    whichever component was right, both counter tables saturate the
    same way, and the global history shifts last.
    """

    __slots__ = (
        "_bimodal",
        "_bimodal_mask",
        "_gshare",
        "_gshare_mask",
        "_chooser",
        "_chooser_mask",
        "_history_mask",
        "history",
    )

    def __init__(
        self,
        bimodal_entries: int = 2048,
        gshare_entries: int = 4096,
        history_bits: int = 12,
        chooser_entries: int = 2048,
    ) -> None:
        for label, entries in (
            ("bimodal", bimodal_entries),
            ("gshare", gshare_entries),
            ("chooser", chooser_entries),
        ):
            if not is_power_of_two(entries):
                raise ValueError(f"{label} entries must be a power of two, got {entries}")
        self._bimodal = [2] * bimodal_entries  # weakly taken, as SimpleScalar
        self._bimodal_mask = bit_mask(log2_exact(bimodal_entries))
        self._gshare = [2] * gshare_entries
        self._gshare_mask = bit_mask(log2_exact(gshare_entries))
        self._chooser = [1] * chooser_entries  # weakly prefer bimodal
        self._chooser_mask = bit_mask(log2_exact(chooser_entries))
        self._history_mask = bit_mask(history_bits)
        self.history = 0

    def predict_train(self, pc: int, taken: bool) -> bool:
        """Predict ``pc``'s direction, then train with the resolved one."""
        word = pc >> 2  # 4-byte-aligned instructions
        bimodal = self._bimodal
        gshare = self._gshare
        chooser = self._chooser
        b_index = word & self._bimodal_mask
        g_index = (word ^ self.history) & self._gshare_mask
        c_index = word & self._chooser_mask
        b_value = bimodal[b_index]
        g_value = gshare[g_index]
        bimodal_pred = b_value >= 2
        gshare_pred = g_value >= 2
        prediction = gshare_pred if chooser[c_index] >= 2 else bimodal_pred

        # Chooser moves toward whichever component was right (ties: no move).
        if gshare_pred == taken and bimodal_pred != taken:
            if chooser[c_index] < 3:
                chooser[c_index] += 1
        elif bimodal_pred == taken and gshare_pred != taken:
            if chooser[c_index] > 0:
                chooser[c_index] -= 1

        if taken:
            if b_value < 3:
                bimodal[b_index] = b_value + 1
            if g_value < 3:
                gshare[g_index] = g_value + 1
            self.history = ((self.history << 1) | 1) & self._history_mask
        else:
            if b_value > 0:
                bimodal[b_index] = b_value - 1
            if g_value > 0:
                gshare[g_index] = g_value - 1
            self.history = (self.history << 1) & self._history_mask
        return prediction


class FastBranchTargetBuffer:
    """Direct-mapped tagged BTB as parallel tag/target/way lists.

    Mirrors :class:`~repro.predictors.btb.BranchTargetBuffer`: a tag
    conflict replaces the whole entry (dropping the trained way), a
    same-tag :meth:`update` refreshes the target but keeps the way,
    and :meth:`update_way` writes the way only on a tag match.
    """

    __slots__ = ("entries", "_index_bits", "_index_mask", "_tags", "_targets", "_ways")

    def __init__(self, entries: int = 2048) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self._index_bits = log2_exact(entries)
        self._index_mask = bit_mask(self._index_bits)
        self._tags = [-1] * entries  # tags are >= 0; -1 marks invalid
        self._targets = [0] * entries
        self._ways = [-1] * entries  # -1 encodes "no way trained"

    def lookup(self, pc: int) -> Optional[Tuple[int, int]]:
        """Return ``(target, way)`` on a tag match, else ``None``."""
        word = pc >> 2
        index = word & self._index_mask
        if self._tags[index] == word >> self._index_bits:
            return self._targets[index], self._ways[index]
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the entry for a taken branch (no way)."""
        word = pc >> 2
        index = word & self._index_mask
        if self._tags[index] == word >> self._index_bits:
            self._targets[index] = target
        else:
            self._tags[index] = word >> self._index_bits
            self._targets[index] = target
            self._ways[index] = -1

    def update_way(self, pc: int, way: int) -> None:
        """Refresh only the way field (after the i-cache resolves it)."""
        word = pc >> 2
        index = word & self._index_mask
        if self._tags[index] == word >> self._index_bits:
            self._ways[index] = way


class FastReturnAddressStack:
    """Fixed-depth return stack as parallel address/way lists.

    Mirrors :class:`~repro.predictors.ras.ReturnAddressStack`: overflow
    overwrites the oldest entry, underflow returns ``None``.
    """

    __slots__ = ("depth", "_addrs", "_ways")

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ValueError("RAS depth must be >= 1")
        self.depth = depth
        self._addrs: List[int] = []
        self._ways: List[int] = []

    def push(self, return_addr: int, way: int = -1) -> None:
        """Push a return address (on a call) with its way (-1 = none)."""
        if len(self._addrs) == self.depth:
            del self._addrs[0]
            del self._ways[0]
        self._addrs.append(return_addr)
        self._ways.append(way)

    def pop(self) -> Optional[Tuple[int, int]]:
        """Pop the predicted ``(return address, way)``; None on underflow."""
        if not self._addrs:
            return None
        return self._addrs.pop(), self._ways.pop()

    def __len__(self) -> int:
        return len(self._addrs)

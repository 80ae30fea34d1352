"""2-level hybrid branch predictor (Table 1's "2-level hybrid").

A McFarling-style combination: a bimodal component, a gshare component,
and a chooser table of 2-bit counters that learns, per PC, which
component to trust.
"""

from __future__ import annotations

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.utils.bitops import bit_mask, is_power_of_two, log2_exact


class HybridPredictor:
    """Chooser-combined bimodal + gshare direction predictor."""

    def __init__(
        self,
        bimodal_entries: int = 2048,
        gshare_entries: int = 4096,
        history_bits: int = 12,
        chooser_entries: int = 2048,
    ) -> None:
        if not is_power_of_two(chooser_entries):
            raise ValueError(f"chooser entries must be a power of two, got {chooser_entries}")
        self.bimodal = BimodalPredictor(bimodal_entries)
        self.gshare = GsharePredictor(gshare_entries, history_bits)
        self._chooser = [1] * chooser_entries  # weakly prefer bimodal
        self._chooser_mask = bit_mask(log2_exact(chooser_entries))

    def _choose_gshare(self, pc: int) -> bool:
        return self._chooser[(pc >> 2) & self._chooser_mask] >= 2

    def predict(self, pc: int) -> bool:
        """Return the predicted direction (True = taken)."""
        if self._choose_gshare(pc):
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def train(self, pc: int, taken: bool) -> None:
        """Train both components, the chooser, and the history register."""
        bimodal_pred = self.bimodal.predict(pc)
        gshare_pred = self.gshare.predict(pc)
        # Chooser moves toward whichever component was right (ties: no move).
        index = (pc >> 2) & self._chooser_mask
        if gshare_pred == taken and bimodal_pred != taken:
            if self._chooser[index] < 3:
                self._chooser[index] += 1
        elif bimodal_pred == taken and gshare_pred != taken:
            if self._chooser[index] > 0:
                self._chooser[index] -= 1

        self.bimodal.train(pc, taken)
        self.gshare.train(pc, taken)  # also shifts global history

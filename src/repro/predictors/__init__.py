"""Prediction structures.

Branch predictors (2-level hybrid, Table 1), the branch target buffer and
return address stack — each extended with the way fields the paper adds
for i-cache way prediction (section 2.3) — and the small PC-indexed
tables used by d-cache way-prediction and selective-DM (section 2.2).
"""

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.btb import BranchTargetBuffer, BtbEntry
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.table import CounterTable, WayPredictionTable

__all__ = [
    "BimodalPredictor",
    "BranchTargetBuffer",
    "BtbEntry",
    "CounterTable",
    "GsharePredictor",
    "HybridPredictor",
    "ReturnAddressStack",
    "WayPredictionTable",
]

"""D-cache way-prediction (Figure 1c, section 2.2.1).

A lookup table maps a *handle* to the predicted way; only that way is
probed with the tag lookup.  The two handles evaluated by the paper:

* the load **PC** — available early (fetch through execute gives ~6
  stages for the lookup) but only ~60% accurate, because the PC carries
  no information about the address beyond per-instruction block
  locality;
* the **XOR approximation** of the effective address (source register
  xor offset, from the zero-cycle-loads work) — ~70% accurate but
  available so late that the table lookup would stretch the cache
  critical path (Cacti puts the lookup at ~48% of the cache access
  time; see ``CactiLite.table_vs_cache_time_ratio``).

A table miss (never-trained entry) falls back to parallel access.
Mispredictions probe the correct way a second time: one extra cycle and
one extra data-way read.
"""

from __future__ import annotations

from typing import Optional

from repro.core.kinds import KIND_PARALLEL, KIND_WAY_PREDICTED
from repro.core.policy import DCachePolicy, MODE_PARALLEL, MODE_SINGLE, ProbePlan
from repro.core.registry import register_policy
from repro.predictors.table import WayPredictionTable


class _WayPredictionPolicyBase(DCachePolicy):
    """Shared machinery; subclasses choose the handle."""

    def __init__(self, table_entries: int = 1024) -> None:
        self.table = WayPredictionTable(table_entries)

    def _handle(self, pc: int, xor_handle: int) -> int:
        raise NotImplementedError

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        predicted = self.table.predict(self._handle(pc, xor_handle))
        if predicted is None:
            return ProbePlan(mode=MODE_PARALLEL, kind=KIND_PARALLEL, table_reads=1)
        return ProbePlan(
            mode=MODE_SINGLE, way=predicted, kind=KIND_WAY_PREDICTED, table_reads=1
        )

    def observe_load(
        self,
        pc: int,
        addr: int,
        xor_handle: int,
        plan: ProbePlan,
        resident_way: Optional[int],
        final_way: int,
        dm_way: int,
    ) -> int:
        # Train toward wherever the block now lives (hit way or fill way);
        # an unchanged entry costs no write energy.
        changed = self.table.train(self._handle(pc, xor_handle), final_way)
        return 1 if changed else 0


@register_policy(
    "waypred_pc", side="dcache", label="PC-based way-pred",
    params={"table_entries": 1024},
)
class PcWayPredictionPolicy(_WayPredictionPolicyBase):
    """Early-but-inaccurate: handle = load PC."""

    def _handle(self, pc: int, xor_handle: int) -> int:
        return pc >> 2


@register_policy(
    "waypred_xor", side="dcache", label="XOR-based way-pred",
    params={"table_entries": 1024},
)
class XorWayPredictionPolicy(_WayPredictionPolicyBase):
    """Accurate-but-late: handle = XOR address approximation."""

    def _handle(self, pc: int, xor_handle: int) -> int:
        return xor_handle

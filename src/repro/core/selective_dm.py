"""Selective direct-mapping (Figure 1d, Figure 2, section 2.2.2).

Two cooperating mechanisms:

* **Block isolation** (placement).  Blocks are non-conflicting by
  default and are placed in their *direct-mapping way* — the way named
  by the index extended with log2(N) tag bits — as if the cache were
  direct-mapped.  A 16-entry victim list counts evictions per block
  address; a block evicted more than twice is deemed conflicting and is
  placed in its set-associative position (replacement-chosen way)
  thereafter.

* **Access flagging** (probing).  A 1024-entry PC-indexed table of 2-bit
  saturating counters predicts whether a load is conflicting.  Counter
  values 0-1 flag a direct-mapped probe (only the DM way is read);
  values 2-3 flag a set-associative probe, handled by the configured
  conflict handler: parallel, PC-based way-prediction, or sequential
  access.  A hit found in the DM way decrements the counter; a hit found
  elsewhere increments it.

Mispredicted-as-DM accesses (DM probe, but the block lives in another
way) pay the same penalty as a way misprediction: a second data-way
probe and one extra cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.kinds import (
    KIND_DIRECT_MAPPED,
    KIND_PARALLEL,
    KIND_SEQUENTIAL,
    KIND_WAY_PREDICTED,
)
from repro.core.policy import (
    DCachePolicy,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    MODE_SINGLE,
    ProbePlan,
)
from repro.core.registry import register_policy
from repro.predictors.table import CounterTable, WayPredictionTable
from repro.utils.bitops import AddressFields

#: Conflict-handler choices for set-associative-flagged accesses.
CONFLICT_HANDLERS = ("parallel", "waypred", "sequential")


class VictimList:
    """Small LRU list of evicted block addresses with eviction counts.

    "On a replacement, the evicted block increments its entry's counter
    in the victim list if it is already present; otherwise, a new victim
    list entry is allocated.  If the count exceeds two, the block is
    deemed conflicting."
    """

    def __init__(self, entries: int = 16, conflict_threshold: int = 2) -> None:
        if entries < 1:
            raise ValueError("victim list needs at least one entry")
        self.entries = entries
        self.conflict_threshold = conflict_threshold
        self._list: "OrderedDict[int, int]" = OrderedDict()

    def record_eviction(self, block_addr: int) -> None:
        """Count one eviction of ``block_addr``."""
        if block_addr in self._list:
            self._list[block_addr] += 1
            self._list.move_to_end(block_addr)
            return
        if len(self._list) >= self.entries:
            self._list.popitem(last=False)  # drop the oldest entry
        self._list[block_addr] = 1

    def is_conflicting(self, block_addr: int) -> bool:
        """True when ``block_addr`` has exceeded the eviction threshold."""
        return self._list.get(block_addr, 0) > self.conflict_threshold

    def eviction_count(self, block_addr: int) -> int:
        """Current count for ``block_addr`` (0 when absent)."""
        return self._list.get(block_addr, 0)

    def __len__(self) -> int:
        return len(self._list)


class SelectiveDmPolicy(DCachePolicy):
    """Selective-DM with a configurable conflict handler."""

    uses_victim_list = True

    def __init__(
        self,
        conflict_handler: str = "waypred",
        table_entries: int = 1024,
        victim_entries: int = 16,
        conflict_threshold: int = 2,
    ) -> None:
        if conflict_handler not in CONFLICT_HANDLERS:
            raise ValueError(
                f"conflict_handler must be one of {CONFLICT_HANDLERS}, got {conflict_handler!r}"
            )
        self.conflict_handler = conflict_handler
        self.name = f"seldm_{conflict_handler}"
        self.mapping_table = CounterTable(table_entries, bits=2, initial=0)
        self.victim_list = VictimList(victim_entries, conflict_threshold)
        # The paper's "incremental extension adds a way number to the
        # prediction table": the same 1024x4-bit entry holds the 2-bit
        # mapping counter plus a 2-bit way number (for 4-way caches).
        self.way_table: Optional[WayPredictionTable] = (
            WayPredictionTable(table_entries) if conflict_handler == "waypred" else None
        )

    # ------------------------------------------------------------------ #
    # Probe planning
    # ------------------------------------------------------------------ #

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        handle = pc >> 2
        if not self.mapping_table.msb_set(handle):
            # Flagged non-conflicting: probe only the direct-mapping way.
            # (The way number is pure address decode - index bits extended
            # with tag bits - so it is available as early as the index.)
            return ProbePlan(mode=MODE_SINGLE, way=-1, kind=KIND_DIRECT_MAPPED, table_reads=1)
        # Flagged conflicting: set-associative access via the handler.
        if self.conflict_handler == "parallel":
            return ProbePlan(mode=MODE_PARALLEL, kind=KIND_PARALLEL, table_reads=1)
        if self.conflict_handler == "sequential":
            return ProbePlan(mode=MODE_SEQUENTIAL, kind=KIND_SEQUENTIAL, table_reads=1)
        predicted = self.way_table.predict(handle)
        if predicted is None:
            return ProbePlan(mode=MODE_PARALLEL, kind=KIND_PARALLEL, table_reads=1)
        return ProbePlan(mode=MODE_SINGLE, way=predicted, kind=KIND_WAY_PREDICTED, table_reads=1)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

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
        handle = pc >> 2
        changed = False
        if resident_way is not None:
            # "Hit using the direct-mapping way" vs "a set-associative way".
            if resident_way == dm_way:
                changed |= self.mapping_table.decrement(handle)
            else:
                changed |= self.mapping_table.increment(handle)
        else:
            # Miss: train toward where the block was just placed.
            if final_way == dm_way:
                changed |= self.mapping_table.decrement(handle)
            else:
                changed |= self.mapping_table.increment(handle)
        if self.way_table is not None:
            changed |= self.way_table.train(handle, final_way)
        # The 2-bit counter and 2-bit way number share one physical
        # 1024x4-bit entry (Table 3), so an access costs at most one
        # table write — and none when nothing changed.
        return 1 if changed else 0

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def placement_way(self, addr: int, fields: AddressFields) -> Optional[int]:
        block_addr = addr >> fields.offset_bits
        if self.victim_list.is_conflicting(block_addr):
            return None  # set-associative position (replacement picks)
        return fields.direct_mapped_way(addr)

    def on_eviction(self, block_addr: int) -> int:
        self.victim_list.record_eviction(block_addr)
        return 1


# ------------------------------------------------------------------ #
# Registry entries: one kind per conflict handler
# ------------------------------------------------------------------ #

_SELDM_PARAMS = {"table_entries": 1024, "victim_entries": 16, "conflict_threshold": 2}


def _register_seldm(handler: str, label: str):
    @register_policy(f"seldm_{handler}", side="dcache", label=label,
                     params=_SELDM_PARAMS,
                     description=f"Selective-DM; conflicting loads use {handler} access")
    def build(table_entries: int = 1024, victim_entries: int = 16,
              conflict_threshold: int = 2) -> SelectiveDmPolicy:
        return SelectiveDmPolicy(
            conflict_handler=handler,
            table_entries=table_entries,
            victim_entries=victim_entries,
            conflict_threshold=conflict_threshold,
        )
    return build


_register_seldm("parallel", "Sel-DM + Parallel")
_register_seldm("waypred", "Sel-DM + Way-pred")
_register_seldm("sequential", "Sel-DM + Sequential")

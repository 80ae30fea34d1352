"""Per-policy fast kernels for the d-cache access policies.

Each d-cache kind runs through a kernel: four closures over plain
list/dict state —

* ``plan(pc, addr, xor_handle) -> (mode, way, kind, table_reads)``
  mirrors ``plan_load`` (``mode`` is one of the ``MODE_*`` ints below;
  ``way == -1`` means "the direct-mapping way");
* ``observe(pc, addr, xor_handle, resident_way, final_way, dm_way)``
  mirrors ``observe_load`` and returns the table-write count;
* ``placement(addr, fields) -> way_or_None`` mirrors ``placement_way``
  and reads the cache's current fields, so no kernel depends on the
  geometry it was built for;
* ``on_eviction(block_addr) -> searches`` mirrors ``on_eviction``.

The paper's static kinds have inlined kernels (:data:`FAST_DCACHE_KERNELS`)
whose table/counter/victim-list semantics are transliterated from
:mod:`repro.predictors.table` and :mod:`repro.core.selective_dm`
(untagged power-of-two tables, 2-bit saturating counters, a small LRU
victim list), so behaviour — including which accesses count as physical
table writes — is identical to the reference policies.  Every other
kind, dynamic or plugin, runs through :func:`policy_kernel`, which
drives the policy object itself through its hooks.  The differential
suite asserts this per kind, field for field.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Mapping, Tuple

from repro.core import policy as core_policy
from repro.core.kinds import (
    KIND_DIRECT_MAPPED,
    KIND_PARALLEL,
    KIND_SEQUENTIAL,
    KIND_WAY_PREDICTED,
)
from repro.utils.bitops import is_power_of_two

#: Integer probe modes (mirroring ``repro.core.policy.MODE_*``).
MODE_PARALLEL = 0
MODE_SINGLE = 1
MODE_SEQUENTIAL = 2
MODE_ORACLE = 3


class DCacheKernel:
    """One policy's compiled fast-path callbacks."""

    __slots__ = ("plan", "observe", "placement", "on_eviction", "uses_victim_list")

    def __init__(self, plan, observe, placement, on_eviction, uses_victim_list: bool) -> None:
        self.plan = plan
        self.observe = observe
        self.placement = placement
        self.on_eviction = on_eviction
        self.uses_victim_list = uses_victim_list


# ------------------------------------------------------------------ #
# Shared no-op hooks (the DCachePolicy base-class defaults)
# ------------------------------------------------------------------ #


def _no_observe(pc, addr, xor_handle, resident_way, final_way, dm_way) -> int:
    return 0


def _default_placement(addr, fields) -> None:
    return None


def _no_eviction(block_addr) -> int:
    return 0


def _table_mask(entries: int) -> int:
    if not is_power_of_two(entries):
        raise ValueError(f"entries must be a power of two, got {entries}")
    return entries - 1


# ------------------------------------------------------------------ #
# Static policies: parallel / sequential / oracle
# ------------------------------------------------------------------ #


def _make_static(mode: int, kind: str):
    plan_result = (mode, -1, kind, 0)

    def factory(params: Mapping[str, object]) -> DCacheKernel:
        def plan(pc, addr, xor_handle):
            return plan_result

        return DCacheKernel(plan, _no_observe, _default_placement, _no_eviction, False)

    return factory


# ------------------------------------------------------------------ #
# Way prediction (PC and XOR handles)
# ------------------------------------------------------------------ #


def _make_waypred(use_xor: bool):
    def factory(params: Mapping[str, object]) -> DCacheKernel:
        mask = _table_mask(int(params.get("table_entries", 1024)))
        ways = [0] * (mask + 1)
        valid = [False] * (mask + 1)

        if use_xor:
            def plan(pc, addr, xor_handle):
                index = xor_handle & mask
                if valid[index]:
                    return (MODE_SINGLE, ways[index], KIND_WAY_PREDICTED, 1)
                return (MODE_PARALLEL, -1, KIND_PARALLEL, 1)

            def observe(pc, addr, xor_handle, resident_way, final_way, dm_way):
                index = xor_handle & mask
                if valid[index] and ways[index] == final_way:
                    return 0
                ways[index] = final_way
                valid[index] = True
                return 1
        else:
            def plan(pc, addr, xor_handle):
                index = (pc >> 2) & mask
                if valid[index]:
                    return (MODE_SINGLE, ways[index], KIND_WAY_PREDICTED, 1)
                return (MODE_PARALLEL, -1, KIND_PARALLEL, 1)

            def observe(pc, addr, xor_handle, resident_way, final_way, dm_way):
                index = (pc >> 2) & mask
                if valid[index] and ways[index] == final_way:
                    return 0
                ways[index] = final_way
                valid[index] = True
                return 1

        return DCacheKernel(plan, observe, _default_placement, _no_eviction, False)

    return factory


# ------------------------------------------------------------------ #
# Selective direct-mapping (three conflict handlers)
# ------------------------------------------------------------------ #


def _make_seldm(handler: str):
    def factory(params: Mapping[str, object]) -> DCacheKernel:
        mask = _table_mask(int(params.get("table_entries", 1024)))
        counters = [0] * (mask + 1)  # 2-bit saturating, initial 0
        victim_entries = int(params.get("victim_entries", 16))
        if victim_entries < 1:
            raise ValueError("victim list needs at least one entry")
        conflict_threshold = int(params.get("conflict_threshold", 2))
        victims: "OrderedDict[int, int]" = OrderedDict()

        way_table = handler == "waypred"
        ways = [0] * (mask + 1) if way_table else None
        valid = [False] * (mask + 1) if way_table else None

        if handler == "parallel":
            conflict_plan = (MODE_PARALLEL, -1, KIND_PARALLEL, 1)
        else:
            conflict_plan = (MODE_SEQUENTIAL, -1, KIND_SEQUENTIAL, 1)
        dm_plan = (MODE_SINGLE, -1, KIND_DIRECT_MAPPED, 1)

        def plan(pc, addr, xor_handle):
            index = (pc >> 2) & mask
            if counters[index] <= 1:  # msb clear: flagged non-conflicting
                return dm_plan
            if not way_table:
                return conflict_plan
            if valid[index]:
                return (MODE_SINGLE, ways[index], KIND_WAY_PREDICTED, 1)
            return (MODE_PARALLEL, -1, KIND_PARALLEL, 1)

        def observe(pc, addr, xor_handle, resident_way, final_way, dm_way):
            index = (pc >> 2) & mask
            changed = False
            toward = resident_way if resident_way is not None else final_way
            if toward == dm_way:
                if counters[index] > 0:  # saturating decrement
                    counters[index] -= 1
                    changed = True
            elif counters[index] < 3:  # saturating increment
                counters[index] += 1
                changed = True
            if way_table and not (valid[index] and ways[index] == final_way):
                ways[index] = final_way
                valid[index] = True
                changed = True
            return 1 if changed else 0

        def placement(addr, fields):
            block = addr >> fields.offset_bits
            if victims.get(block, 0) > conflict_threshold:
                return None  # conflicting: set-associative position
            return (block >> fields.index_bits) & ((1 << fields.way_bits) - 1)

        def on_eviction(block_addr):
            if block_addr in victims:
                victims[block_addr] += 1
                victims.move_to_end(block_addr)
                return 1
            if len(victims) >= victim_entries:
                victims.popitem(last=False)  # drop the oldest entry
            victims[block_addr] = 1
            return 1

        return DCacheKernel(plan, observe, placement, on_eviction, True)

    return factory


#: kind -> inlined kernel factory, for the paper's static d-cache policies.
FAST_DCACHE_KERNELS: Dict[str, Callable[[Mapping[str, object]], DCacheKernel]] = {
    "parallel": _make_static(MODE_PARALLEL, KIND_PARALLEL),
    "sequential": _make_static(MODE_SEQUENTIAL, KIND_SEQUENTIAL),
    "oracle": _make_static(MODE_ORACLE, KIND_WAY_PREDICTED),
    "waypred_pc": _make_waypred(use_xor=False),
    "waypred_xor": _make_waypred(use_xor=True),
    "seldm_parallel": _make_seldm("parallel"),
    "seldm_waypred": _make_seldm("waypred"),
    "seldm_sequential": _make_seldm("sequential"),
}


def fast_dcache_kinds() -> Tuple[str, ...]:
    """D-cache kinds the fast backend has inlined kernels for."""
    return tuple(FAST_DCACHE_KERNELS)


#: ``ProbePlan.mode`` -> integer mode; anything else probes a single
#: way, as in ``DCacheEngine._execute_plan``.
_PLAN_MODES = {
    core_policy.MODE_PARALLEL: MODE_PARALLEL,
    core_policy.MODE_SEQUENTIAL: MODE_SEQUENTIAL,
    core_policy.MODE_ORACLE: MODE_ORACLE,
}


def policy_kernel(policy: core_policy.DCachePolicy) -> DCacheKernel:
    """The adapter kernel: drives ``policy`` through its own hooks.

    Serves every kind without an inlined kernel (dynamic kinds and
    plugins); ``observe_load`` receives the plan of the same access.
    """
    plan_load = policy.plan_load
    observe_load = policy.observe_load
    last_plan = None

    def plan(pc, addr, xor_handle):
        nonlocal last_plan
        last_plan = probe = plan_load(pc, addr, xor_handle)
        way = probe.way
        return (
            _PLAN_MODES.get(probe.mode, MODE_SINGLE),
            -1 if way is None else way,
            probe.kind,
            probe.table_reads,
        )

    def observe(pc, addr, xor_handle, resident_way, final_way, dm_way):
        return observe_load(pc, addr, xor_handle, last_plan, resident_way, final_way, dm_way)

    return DCacheKernel(
        plan, observe, policy.placement_way, policy.on_eviction, policy.uses_victim_list
    )

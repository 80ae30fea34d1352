"""Batched functional miss-rate replay (the fast Table-4 path).

:func:`fast_miss_rate` computes exactly what
:func:`repro.sim.functional.measure_miss_rate` computes — same warmup
gating, same replacement behaviour, same counts — but over a
pre-encoded flat address stream with per-set state held in plain Python
lists, so the per-access cost is a couple of C-level list operations
instead of a tower of cache/set/block/replacement objects.

Two replay strategies:

* LRU (the paper's default and the hot path): each set is one list of
  resident block addresses in MRU-first order.  An MRU short-circuit
  skips all list surgery for the most common access — a repeat of the
  set's most recent block — and everything else falls out of
  ``list.remove`` + ``insert``.  (Index-slot recency arrays with
  per-way stamps were measured here and lost: at the paper's 4-way
  associativity the C-level scan of a tiny list beats per-access stamp
  bookkeeping and argmin scans in pure Python.)
* Any other registered replacement (``fifo``/``random``/``plru``):
  way-indexed slot lists driven by the *real*
  :mod:`repro.cache.replacement` policy objects, so victim choice —
  including the deterministic RNG stream of ``random`` — is identical
  to the reference by construction.

A third tier vectorizes the same computation with numpy when available
(:mod:`repro.fastsim.vector`); this module stays dependency-free and is
its per-policy fallback.
"""

from __future__ import annotations

from itertools import islice
from typing import Union

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import make_replacement
from repro.core.interval import (
    IntervalStats,
    is_dynamic_policy,
    validate_reconfigure,
)
from repro.sim.functional import MissRateResult
from repro.utils.bitops import bit_mask
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.trace import Trace


def fast_miss_rate(
    trace: Union[Trace, EncodedTrace],
    geometry: CacheGeometry,
    replacement: str = "lru",
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Batched equivalent of :func:`~repro.sim.functional.measure_miss_rate`.

    With ``interval > 0`` and a dynamic ``policy_factory`` the batched
    replay is segmented at tick boundaries (:func:`_fast_dynamic`);
    otherwise both knobs are inert and the whole pre-decoded block
    stream replays through fresh per-set state, counting from
    ``warmup``.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if interval < 0:
        raise ValueError(f"interval must be >= 0, got {interval}")
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    warmup = int(len(encoded) * warmup_fraction)
    if interval > 0 and policy_factory is not None:
        policy = policy_factory()
        if is_dynamic_policy(policy):
            return _fast_dynamic(
                encoded, geometry, replacement, warmup, interval, policy
            )
    blocks = encoded.blocks(geometry.fields)
    is_load = encoded.is_load
    if geometry.associativity == 1:
        # Direct-mapped: residency is one block per set; replacement
        # policies never arbitrate, so every name behaves identically —
        # but an unknown name must still raise like the reference does.
        make_replacement(replacement, 1)
        counts = _replay_direct_mapped(blocks, is_load, geometry, warmup)
    elif replacement == "lru":
        counts = _replay_lru(blocks, is_load, geometry, warmup)
    else:
        counts = _replay_generic(blocks, is_load, geometry, replacement, warmup)
    accesses, misses, load_accesses, load_misses = counts
    return MissRateResult(
        accesses=accesses,
        misses=misses,
        load_accesses=load_accesses,
        load_misses=load_misses,
    )


def _replay_direct_mapped(blocks, is_load, geometry: CacheGeometry, warmup: int):
    """One resident block per set: a flat array replaces all set state."""
    set_mask = bit_mask(geometry.fields.index_bits)
    resident = [-1] * geometry.num_sets

    for pos in range(warmup):
        block = blocks[pos]
        resident[block & set_mask] = block

    accesses = misses = load_accesses = load_misses = 0
    for pos in range(warmup, len(blocks)):
        block = blocks[pos]
        index = block & set_mask
        hit = resident[index] == block
        if not hit:
            resident[index] = block
        accesses += 1
        if is_load[pos]:
            load_accesses += 1
            if not hit:
                misses += 1
                load_misses += 1
        elif not hit:
            misses += 1
    return accesses, misses, load_accesses, load_misses


def _replay_lru(blocks, is_load, geometry: CacheGeometry, warmup: int):
    """MRU-first block lists: residency and recency in one structure.

    The hot-path trick is the MRU short-circuit: most accesses repeat
    the set's most recent block (spatial runs through a cache line),
    and for those the list is already in order — no remove/insert at
    all.  Iteration pairs the two streams with ``zip``/``islice`` so
    the loop never pays per-access integer indexing.
    """
    set_mask = bit_mask(geometry.fields.index_bits)
    assoc = geometry.associativity
    orders = [[] for _ in range(geometry.num_sets)]

    # Warmup phase: evolve state, count nothing.
    for block in islice(blocks, warmup):
        order = orders[block & set_mask]
        if order and order[0] == block:
            continue  # already MRU: nothing moves
        try:
            order.remove(block)  # hit: re-insert at MRU below
        except ValueError:
            if len(order) >= assoc:
                order.pop()  # evict the LRU tail
        order.insert(0, block)

    accesses = misses = load_accesses = load_misses = 0
    for block, load in zip(islice(blocks, warmup, None), islice(is_load, warmup, None)):
        order = orders[block & set_mask]
        if order and order[0] == block:
            hit = True
        else:
            try:
                order.remove(block)
                hit = True
            except ValueError:
                hit = False
                if len(order) >= assoc:
                    order.pop()
            order.insert(0, block)
        accesses += 1
        if load:
            load_accesses += 1
            if not hit:
                misses += 1
                load_misses += 1
        elif not hit:
            misses += 1
    return accesses, misses, load_accesses, load_misses


class _DynamicState:
    """Per-set replay state that survives tick boundaries.

    Holds the same structures the static kernels build — a resident
    array (direct-mapped), MRU-first lists (LRU), or way slots plus
    real replacement objects (everything else) — but keyed off the
    *current* geometry so a reconfiguration can rebuild them fresh
    (invalidate-all, exactly like the reference array's
    :meth:`~repro.cache.sram.SetAssociativeCache.reconfigure`).  The
    block stream is decoded once: reconfiguration preserves
    ``block_bytes``, so only the set mask changes.
    """

    def __init__(self, blocks, is_load, geometry: CacheGeometry, replacement: str) -> None:
        self.blocks = blocks
        self.is_load = is_load
        self.replacement = replacement
        # Unknown replacement names must raise at build, like the
        # reference constructor, even on the direct-mapped path.
        make_replacement(replacement, geometry.associativity)
        self.rebuild(geometry)

    def rebuild(self, geometry: CacheGeometry) -> None:
        """Point the state at ``geometry`` with every set cold."""
        self.geometry = geometry
        self.set_mask = bit_mask(geometry.fields.index_bits)
        self.assoc = geometry.associativity
        if geometry.associativity == 1:
            self._segment = self._segment_direct_mapped
            self.resident = [-1] * geometry.num_sets
        elif self.replacement == "lru":
            self._segment = self._segment_lru
            self.orders = [[] for _ in range(geometry.num_sets)]
        else:
            self._segment = self._segment_generic
            self.slots = [[-1] * self.assoc for _ in range(geometry.num_sets)]
            self.policies = [
                make_replacement(self.replacement, self.assoc)
                for _ in range(geometry.num_sets)
            ]

    def replay(self, start: int, end: int, warmup: int):
        """Replay positions ``[start, end)``; return counted + window sums.

        Returns ``(accesses, misses, load_accesses, load_misses,
        seg_misses, seg_loads)`` where the first four count only
        positions ``>= warmup`` (the result counters) and the last two
        cover the whole segment (the tick's observation window).
        """
        return self._segment(start, end, warmup)

    def _segment_direct_mapped(self, start, end, warmup):
        blocks, is_load, set_mask = self.blocks, self.is_load, self.set_mask
        resident = self.resident
        accesses = misses = load_accesses = load_misses = 0
        seg_misses = seg_loads = 0
        for pos in range(start, end):
            block = blocks[pos]
            index = block & set_mask
            hit = resident[index] == block
            if not hit:
                resident[index] = block
                seg_misses += 1
            load = is_load[pos]
            if load:
                seg_loads += 1
            if pos < warmup:
                continue
            accesses += 1
            if load:
                load_accesses += 1
                if not hit:
                    misses += 1
                    load_misses += 1
            elif not hit:
                misses += 1
        return accesses, misses, load_accesses, load_misses, seg_misses, seg_loads

    def _segment_lru(self, start, end, warmup):
        blocks, is_load, set_mask = self.blocks, self.is_load, self.set_mask
        orders, assoc = self.orders, self.assoc
        accesses = misses = load_accesses = load_misses = 0
        seg_misses = seg_loads = 0
        for pos in range(start, end):
            block = blocks[pos]
            order = orders[block & set_mask]
            if order and order[0] == block:
                hit = True  # already MRU: nothing moves
            else:
                try:
                    order.remove(block)
                    hit = True
                except ValueError:
                    hit = False
                    if len(order) >= assoc:
                        order.pop()
                order.insert(0, block)
            if not hit:
                seg_misses += 1
            load = is_load[pos]
            if load:
                seg_loads += 1
            if pos < warmup:
                continue
            accesses += 1
            if load:
                load_accesses += 1
                if not hit:
                    misses += 1
                    load_misses += 1
            elif not hit:
                misses += 1
        return accesses, misses, load_accesses, load_misses, seg_misses, seg_loads

    def _segment_generic(self, start, end, warmup):
        blocks, is_load, set_mask = self.blocks, self.is_load, self.set_mask
        slots, policies = self.slots, self.policies
        accesses = misses = load_accesses = load_misses = 0
        seg_misses = seg_loads = 0
        for pos in range(start, end):
            block = blocks[pos]
            index = block & set_mask
            ways = slots[index]
            policy = policies[index]
            try:
                way = ways.index(block)
                hit = True
                policy.touch(way)
            except ValueError:
                hit = False
                try:
                    way = ways.index(-1)  # lowest invalid way first
                except ValueError:
                    way = policy.victim()
                ways[way] = block
                policy.fill(way)
            if not hit:
                seg_misses += 1
            load = is_load[pos]
            if load:
                seg_loads += 1
            if pos < warmup:
                continue
            accesses += 1
            if load:
                load_accesses += 1
                if not hit:
                    misses += 1
                    load_misses += 1
            elif not hit:
                misses += 1
        return accesses, misses, load_accesses, load_misses, seg_misses, seg_loads


def _fast_dynamic(
    encoded: EncodedTrace,
    geometry: CacheGeometry,
    replacement: str,
    warmup: int,
    interval: int,
    policy,
) -> MissRateResult:
    """Tick-segmented batched replay, byte-identical to the reference.

    The stream is cut into ``interval``-sized segments; per-set state
    persists across the cut unless a tick reconfigures (then it
    rebuilds cold, matching the reference's invalidate-all flush).
    Bypassed segments never touch cache state: every access is a miss
    served by the next level, exactly the reference semantics.
    """
    n = len(encoded)
    is_load = encoded.is_load
    blocks = encoded.blocks(geometry.fields)
    state = _DynamicState(blocks, is_load, geometry, replacement)
    bypassed = False
    accesses = misses = load_accesses = load_misses = 0
    ticks = reconfigurations = bypass_toggles = bypassed_accesses = 0
    total_accesses = total_misses = 0
    seg_start = 0
    while seg_start < n:
        seg_end = min(n, seg_start + interval)
        seg_len = seg_end - seg_start
        if bypassed:
            seg_misses = seg_len
            seg_loads = sum(islice(is_load, seg_start, seg_end))
            bypassed_accesses += seg_len
            count_start = max(seg_start, warmup)
            if count_start < seg_end:
                counted = seg_end - count_start
                counted_loads = sum(islice(is_load, count_start, seg_end))
                accesses += counted
                misses += counted
                load_accesses += counted_loads
                load_misses += counted_loads
        else:
            c_acc, c_mis, c_lacc, c_lmis, seg_misses, seg_loads = state.replay(
                seg_start, seg_end, warmup
            )
            accesses += c_acc
            misses += c_mis
            load_accesses += c_lacc
            load_misses += c_lmis
        total_accesses += seg_len
        total_misses += seg_misses
        if seg_end >= n:
            break
        stats = IntervalStats(
            index=ticks,
            position=seg_end,
            interval=interval,
            accesses=seg_len,
            loads=seg_loads,
            stores=seg_len - seg_loads,
            misses=seg_misses,
            way_mispredicts=0,
            energy_delta=0.0,
            total_accesses=total_accesses,
            total_misses=total_misses,
            geometry=state.geometry,
            bypassed=bypassed,
        )
        action = policy.on_interval(stats)
        ticks += 1
        if action is not None:
            if action.geometry is not None and action.geometry != state.geometry:
                validate_reconfigure(state.geometry, action.geometry)
                state.rebuild(action.geometry)
                reconfigurations += 1
            if action.bypass is not None and action.bypass != bypassed:
                bypassed = action.bypass
                bypass_toggles += 1
        seg_start = seg_end
    return MissRateResult(
        accesses=accesses,
        misses=misses,
        load_accesses=load_accesses,
        load_misses=load_misses,
        ticks=ticks,
        reconfigurations=reconfigurations,
        bypass_toggles=bypass_toggles,
        bypassed_accesses=bypassed_accesses,
        final_size_bytes=state.geometry.size_bytes,
    )


def _replay_generic(blocks, is_load, geometry: CacheGeometry, replacement: str, warmup: int):
    """Way-indexed slots + the real replacement policy objects.

    Mirrors :class:`~repro.cache.cacheset.CacheSet` exactly: lookup is
    first-matching-way, fills prefer the lowest invalid way, and only a
    full set consults the policy's ``victim()``.
    """
    set_mask = bit_mask(geometry.fields.index_bits)
    assoc = geometry.associativity
    slots = [[-1] * assoc for _ in range(geometry.num_sets)]
    policies = [make_replacement(replacement, assoc) for _ in range(geometry.num_sets)]

    accesses = misses = load_accesses = load_misses = 0
    counting = False
    for pos in range(len(blocks)):
        if pos == warmup:
            counting = True
        block = blocks[pos]
        index = block & set_mask
        ways = slots[index]
        policy = policies[index]
        try:
            way = ways.index(block)
            hit = True
            policy.touch(way)
        except ValueError:
            hit = False
            try:
                way = ways.index(-1)  # lowest invalid way first
            except ValueError:
                way = policy.victim()
            ways[way] = block
            policy.fill(way)
        if not counting:
            continue
        accesses += 1
        if is_load[pos]:
            load_accesses += 1
            if not hit:
                misses += 1
                load_misses += 1
        elif not hit:
            misses += 1
    return accesses, misses, load_accesses, load_misses

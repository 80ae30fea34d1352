"""Batched functional miss-rate replay: the fast tier's miss-rate path.

:func:`fast_miss_rate` computes exactly what
:func:`repro.sim.functional.measure_miss_rate` computes — same warmup
gating, same LRU replacement, same interval ticks, same counts —
but over a pre-encoded flat block stream with per-set state held in
plain Python lists.

One driver serves static and ticked runs alike (a static run is one
segment spanning the stream).  It owns tick timing and
:class:`~repro.core.interval.IntervalStats`, flushes (a reconfiguration
starts a new kernel from a cold cache) and bypass (the window's
accesses all miss), and counting: every position gets one flag in a
miss ``bytearray``, so window sums and warmup-gated result counts are
C-level counts over it.

The hit/miss decision is one of two kernels, each replaying a position
range through per-set state that it keeps between calls:

* direct-mapped: one resident block per set;
* set-associative LRU: MRU-first block lists.  An MRU short-circuit
  skips all list surgery for the commonest access, a repeat of the
  set's most recent block.  (Index-slot recency arrays with per-way
  stamps were measured here and lost: at the paper's 4-way
  associativity the C-level scan of a tiny list wins.)
"""

from __future__ import annotations

from typing import Union

from repro.cache.geometry import CacheGeometry
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
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Batched equivalent of :func:`~repro.sim.functional.measure_miss_rate`.

    With ``interval > 0`` and a dynamic ``policy_factory`` the replay
    ticks the policy exactly as the reference does; otherwise both
    knobs are inert.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if interval < 0:
        raise ValueError(f"interval must be >= 0, got {interval}")
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    policy = policy_factory() if interval and policy_factory is not None else None
    ticked = is_dynamic_policy(policy)
    n = len(encoded)
    warmup = int(n * warmup_fraction)
    miss = bytearray(n)
    # Straight off an artifact's mapped section when one backs the
    # encoding: counting needs no python restore of the stream.
    loads = bytes(encoded.buffer("is_load"))
    kernel = _kernel(encoded.blocks(geometry.fields), geometry, miss)
    step = interval if ticked else max(n, 1)
    bypassed = False
    ticks = reconfigurations = bypass_toggles = bypassed_accesses = 0
    total_misses = 0
    start = 0
    while start < n:
        end = min(n, start + step)
        if bypassed:
            miss[start:end] = b"\x01" * (end - start)
            bypassed_accesses += end - start
        else:
            kernel(start, end)
        if end == n:
            break
        window_misses = miss.count(1, start, end)
        window_loads = loads.count(1, start, end)
        total_misses += window_misses
        action = policy.on_interval(IntervalStats(
            index=ticks,
            position=end,
            interval=interval,
            accesses=end - start,
            loads=window_loads,
            stores=end - start - window_loads,
            misses=window_misses,
            way_mispredicts=0,
            energy_delta=0.0,
            total_accesses=end,
            total_misses=total_misses,
            geometry=geometry,
            bypassed=bypassed,
        ))
        ticks += 1
        if action is not None:
            if action.geometry is not None and action.geometry != geometry:
                validate_reconfigure(geometry, action.geometry)
                # A flush: the new geometry starts from a cold cache.
                geometry = action.geometry
                kernel = _kernel(encoded.blocks(geometry.fields), geometry, miss)
                reconfigurations += 1
            if action.bypass is not None and action.bypass != bypassed:
                bypassed = action.bypass
                bypass_toggles += 1
        start = end
    # Each flag is one byte of 0 or 1, so the AND of the two streams
    # read as integers has one set bit per counted load miss.
    load_misses = (
        int.from_bytes(memoryview(miss)[warmup:], "little")
        & int.from_bytes(memoryview(loads)[warmup:], "little")
    ).bit_count()
    return MissRateResult(
        accesses=n - warmup,
        misses=miss.count(1, warmup),
        load_accesses=loads.count(1, warmup),
        load_misses=load_misses,
        ticks=ticks,
        reconfigurations=reconfigurations,
        bypass_toggles=bypass_toggles,
        bypassed_accesses=bypassed_accesses,
        final_size_bytes=geometry.size_bytes if ticked else 0,
    )


def _kernel(blocks, geometry: CacheGeometry, miss):
    """The kernel for ``geometry``.

    Returns ``run(start, end)``, which replays positions
    ``[start, end)`` of the decoded ``blocks`` through per-set state it
    keeps between calls and sets ``miss[pos]`` on every miss.
    Iterating a list slice under ``enumerate`` costs no per-access
    indexing, and unlike ``islice`` it does not walk the prefix first.
    """
    set_mask = bit_mask(geometry.fields.index_bits)
    assoc = geometry.associativity
    if assoc == 1:
        # No victim choice: one resident block per set.
        resident = [-1] * geometry.num_sets

        def direct_mapped(start: int, end: int) -> None:
            for pos, block in enumerate(blocks[start:end], start):
                index = block & set_mask
                if resident[index] != block:
                    resident[index] = block
                    miss[pos] = 1

        return direct_mapped

    orders = [[] for _ in range(geometry.num_sets)]

    def lru(start: int, end: int) -> None:
        for pos, block in enumerate(blocks[start:end], start):
            order = orders[block & set_mask]
            if order and order[0] == block:
                continue  # already MRU: nothing moves
            try:
                order.remove(block)  # hit: re-insert at MRU below
            except ValueError:
                miss[pos] = 1
                if len(order) >= assoc:
                    order.pop()  # evict the LRU tail
            order.insert(0, block)

    return lru

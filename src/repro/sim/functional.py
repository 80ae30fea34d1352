"""Functional (timing-free) cache simulation.

Table 4 of the paper compares raw d-cache miss rates between a
direct-mapped and a 4-way set-associative 16K cache.  That experiment —
and workload calibration — only needs hit/miss behaviour, so this module
streams a trace's memory accesses through a bare LRU
:class:`SetAssociativeCache` with no pipeline, which is an order of
magnitude faster than the full simulator.

This is the *reference* implementation of the functional path;
:func:`repro.fastsim.missrate.fast_miss_rate` is its batched equivalent
(``backend="fast"``), proven byte-identical by the differential suite.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.sram import SetAssociativeCache
from repro.core.interval import (
    IntervalStats,
    is_dynamic_policy,
    validate_reconfigure,
)
from repro.workload.instr import OP_LOAD, OP_STORE
from repro.workload.trace import Trace

#: Attribute memoizing the buffered memory-op arrays on a trace.
_MEM_OPS_ATTR = "_functional_mem_ops"


def trace_mem_ops(trace: Trace) -> Tuple[array, array]:
    """The trace's memory-op streams ``(addrs, is_load)``, memoized.

    One streaming pass buffers the memory ops into compact unsigned
    arrays (9 bytes/op) instead of a materialized Instr list: the
    counts are identical, a StreamingTrace (ingested file) is parsed
    at most once, and no per-instruction objects outlive their chunk.
    The buffers memoize on the trace (like the fast backend's encoding,
    but built independently of it — the differential suite relies on
    the two paths not sharing decode state), so sweeping many
    configurations over one file-backed trace parses it once.
    """
    memo = getattr(trace, _MEM_OPS_ATTR, None)
    if memo is None:
        addrs = array("Q")
        loads = array("b")
        for instr in trace:
            if instr.op == OP_LOAD or instr.op == OP_STORE:
                addrs.append(instr.addr)
                loads.append(1 if instr.op == OP_LOAD else 0)
        memo = (addrs, loads)
        setattr(trace, _MEM_OPS_ATTR, memo)
    return memo


@dataclass(frozen=True)
class MissRateResult:
    """Miss statistics from one functional run.

    The dynamics counters describe interval-tick activity when the run
    used a dynamic policy (``interval > 0``); they stay at their zero
    defaults on every static run.  ``bypassed_accesses`` counts every
    bypassed replay position, warmup included — it is observability
    metadata, not a result counter.
    """

    accesses: int
    misses: int
    load_accesses: int
    load_misses: int
    ticks: int = 0
    reconfigurations: int = 0
    bypass_toggles: int = 0
    bypassed_accesses: int = 0
    final_size_bytes: int = 0

    @property
    def miss_rate(self) -> float:
        """Overall miss ratio in [0, 1]."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def load_miss_rate(self) -> float:
        """Load-only miss ratio in [0, 1]."""
        return self.load_misses / self.load_accesses if self.load_accesses else 0.0


def measure_miss_rate(
    trace: Trace,
    geometry: CacheGeometry,
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Stream ``trace``'s memory accesses through an LRU cache.

    Args:
        warmup_fraction: fraction of the trace's memory accesses used to
            warm the cache before counting (the paper's billions of
            instructions make cold-start effects negligible; ours would
            not be without a warmup window).
        interval: tick period in memory accesses; with a dynamic
            ``policy_factory`` the run delivers
            :class:`~repro.core.interval.IntervalStats` every
            ``interval`` accesses and applies any returned
            reconfiguration.  0 disables ticking.
        policy_factory: zero-argument callable building a fresh policy
            instance (each tier builds its own, so one factory can drive
            runs on every tier).  Ignored unless the built policy is
            dynamic (:func:`~repro.core.interval.is_dynamic_policy`).

    This is the oracle the fast tier matches byte for byte.
    A static run (``interval`` 0 or a static policy) reports every
    dynamics counter as 0, ``final_size_bytes`` included, and a stream
    that is entirely warmup counts zero accesses (``miss_rate`` 0.0).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if interval < 0:
        raise ValueError(f"interval must be >= 0, got {interval}")
    policy = policy_factory() if interval > 0 and policy_factory is not None else None
    ticked = is_dynamic_policy(policy)
    addrs, loads = trace_mem_ops(trace)
    n = len(addrs)
    warmup = int(n * warmup_fraction)
    cache = SetAssociativeCache(geometry)
    bypassed = False
    accesses = misses = load_accesses = load_misses = 0
    ticks = reconfigurations = bypass_toggles = bypassed_accesses = 0
    win_accesses = win_loads = win_misses = 0
    total_accesses = total_misses = 0
    # The k-th tick fires just before position ``k*interval`` is
    # processed (k >= 1, strictly inside the stream) and describes the
    # preceding window; see :mod:`repro.core.interval` for the full
    # timing and flush semantics.  A static run's first tick never comes.
    next_tick = interval if ticked else n
    for position in range(n):
        if position == next_tick:
            stats = IntervalStats(
                index=ticks,
                position=position,
                interval=interval,
                accesses=win_accesses,
                loads=win_loads,
                stores=win_accesses - win_loads,
                misses=win_misses,
                way_mispredicts=0,
                energy_delta=0.0,
                total_accesses=total_accesses,
                total_misses=total_misses,
                geometry=cache.geometry,
                bypassed=bypassed,
            )
            action = policy.on_interval(stats)
            ticks += 1
            next_tick += interval
            win_accesses = win_loads = win_misses = 0
            if action is not None:
                if action.geometry is not None and action.geometry != cache.geometry:
                    validate_reconfigure(cache.geometry, action.geometry)
                    cache.reconfigure(action.geometry)
                    reconfigurations += 1
                if action.bypass is not None and action.bypass != bypassed:
                    bypassed = action.bypass
                    bypass_toggles += 1
        addr = addrs[position]
        if bypassed:
            hit = False
            bypassed_accesses += 1
        else:
            way = cache.probe(addr)
            hit = way is not None
            if hit:
                cache.touch(addr, way)
            else:
                cache.fill(addr)
        is_load = loads[position]
        win_accesses += 1
        win_loads += 1 if is_load else 0
        total_accesses += 1
        if not hit:
            win_misses += 1
            total_misses += 1
        if position < warmup:
            continue
        accesses += 1
        if is_load:
            load_accesses += 1
        if not hit:
            misses += 1
            if is_load:
                load_misses += 1
    return MissRateResult(
        accesses=accesses,
        misses=misses,
        load_accesses=load_accesses,
        load_misses=load_misses,
        ticks=ticks,
        reconfigurations=reconfigurations,
        bypass_toggles=bypass_toggles,
        bypassed_accesses=bypassed_accesses,
        final_size_bytes=cache.geometry.size_bytes if ticked else 0,
    )

"""Batched functional miss-rate replay: one driver for the fast and
vector tiers.

:func:`fast_miss_rate` computes exactly what
:func:`repro.sim.functional.measure_miss_rate` computes — same warmup
gating, same replacement behaviour, same interval ticks, same counts —
but over a pre-encoded flat block stream with per-set state held in
plain Python lists.

Everything except the hit/miss decision lives in one private driver,
:func:`_replay`, which this tier and the numpy tier
(:func:`repro.fastsim.vector.vector_miss_rate`) both call, for static
and ticked runs alike.  The driver alone owns tick timing and
:class:`~repro.core.interval.IntervalStats`, flushes (a reconfiguration
starts a new cold *epoch*) and bypass (the window's accesses all miss),
and counting: every position gets one flag in a miss ``bytearray``, so
window sums and warmup-gated result counts are C-level counts over it.

A tier supplies only the hit/miss decision.  The python tier has one
kernel per replacement family, each replaying a position range through
per-set state that it keeps between calls:

* direct-mapped: one resident block per set;
* LRU (the paper's default and the hot path): MRU-first block lists.
  An MRU short-circuit skips all list surgery for the commonest access,
  a repeat of the set's most recent block.  (Index-slot recency arrays
  with per-way stamps were measured here and lost: at the paper's 4-way
  associativity the C-level scan of a tiny list wins.)
* everything else (``fifo``/``random``/``plru``/plugins): way slots
  driven by the *real* :mod:`repro.cache.replacement` objects, so
  victim choice — including the RNG stream of ``random`` — is the
  reference's by construction.

The vector tier supplies a cold-start classifier instead (see
:class:`_Epoch` for how the driver uses it).  The driver sees only
bytes of miss flags, never the classifier's arrays, so this module
stays numpy-free.
"""

from __future__ import annotations

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

    With ``interval > 0`` and a dynamic ``policy_factory`` the replay
    ticks the policy exactly as the reference does; otherwise both
    knobs are inert.
    """
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    return _replay(encoded, geometry, replacement, warmup_fraction,
                   interval, policy_factory)


def _replay(
    encoded: EncodedTrace,
    geometry: CacheGeometry,
    replacement: str,
    warmup_fraction: float,
    interval: int,
    policy_factory,
    classify=None,
) -> MissRateResult:
    """The miss-rate driver behind every non-reference tier.

    ``classify(encoded, geometry, replacement, start, end)`` is the
    vector tier's cold-start classifier: the miss flags of positions
    ``[start, end)`` as one 0/1 byte each, or ``None`` to decline the
    range.  Without one, every epoch runs on the python kernels.  A
    static run is one segment spanning the stream.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if interval < 0:
        raise ValueError(f"interval must be >= 0, got {interval}")
    policy = policy_factory() if interval and policy_factory is not None else None
    ticked = is_dynamic_policy(policy)
    n = len(encoded)
    warmup = int(n * warmup_fraction)
    miss = bytearray(n)
    # Straight off an artifact's mapped section when one backs the
    # encoding: counting needs no python restore of the stream.
    loads = bytes(encoded.buffer("is_load"))
    epoch = _Epoch(encoded, geometry, replacement, miss, classify, 0, n)
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
            epoch.feed(start, end)
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
            geometry=epoch.geometry,
            bypassed=bypassed,
        ))
        ticks += 1
        if action is not None:
            if action.geometry is not None and action.geometry != epoch.geometry:
                validate_reconfigure(epoch.geometry, action.geometry)
                epoch = _Epoch(encoded, action.geometry, replacement, miss,
                               classify, end, 2 * interval)
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
        final_size_bytes=epoch.geometry.size_bytes if ticked else 0,
    )


class _Epoch:
    """The cache from one cold start (the run's, or a flush's) onward.

    :meth:`feed` hands the cache positions ``[start, end)`` and writes
    their miss flags.  While the positions fed so far form one run from
    the cold start, a vector epoch answers from the classifier: the
    first epoch classifies the whole stream in one call, later ones
    horizons of ``2 * interval`` that double as the epoch grows.  When
    the fed positions stop being one run (a bypass released) or the
    classifier declines a horizon, the epoch replays the run fed so far
    into a python kernel, once, and stays there until the next flush —
    cost stays linear and nothing reruns from scratch.  Flags past the
    last fed position may be speculative; every later write to them
    overwrites.
    """

    def __init__(self, encoded: EncodedTrace, geometry: CacheGeometry,
                 replacement: str, miss: bytearray, classify, start: int,
                 span: int) -> None:
        # Unknown replacement names must raise at build, like the
        # reference constructor, whichever kernel ends up running.
        make_replacement(replacement, geometry.associativity)
        self.encoded = encoded
        self.geometry = geometry
        self.replacement = replacement
        self.miss = miss
        self.classify = classify
        # The run fed so far is [start, fed); the classifier's flags
        # cover [start, horizon), and the next horizon spans ``span``.
        self.start = self.fed = self.horizon = start
        self.span = span
        self.kernel = None

    def feed(self, start: int, end: int) -> None:
        if self.kernel is None:
            if start == self.fed and self._classified(end):
                self.fed = end
                return
            self.kernel = _python_kernel(
                self.encoded.blocks(self.geometry.fields), self.geometry,
                self.replacement, self.miss,
            )
            self._run(self.start, self.fed)
        self._run(start, end)

    def _classified(self, end: int) -> bool:
        """Whether ``[self.start, end)`` carries classifier flags,
        classifying a longer horizon first if it must."""
        if self.classify is None:
            return False
        if end > self.horizon:
            while self.start + self.span < end:
                self.span *= 2
            horizon = min(len(self.miss), self.start + self.span)
            flags = self.classify(self.encoded, self.geometry,
                                  self.replacement, self.start, horizon)
            if flags is None:
                return False
            self.miss[self.start:horizon] = flags
            self.horizon = horizon
        return True

    def _run(self, start: int, end: int) -> None:
        self.miss[start:end] = bytes(end - start)
        self.kernel(start, end)


def _python_kernel(blocks, geometry: CacheGeometry, replacement: str, miss):
    """The python kernel for ``geometry`` and ``replacement``.

    Returns ``run(start, end)``, which replays positions
    ``[start, end)`` of the decoded ``blocks`` through per-set state it
    keeps between calls and sets ``miss[pos]`` on every miss.
    Iterating a list slice under ``enumerate`` costs no per-access
    indexing, and unlike ``islice`` it does not walk the prefix first.
    """
    set_mask = bit_mask(geometry.fields.index_bits)
    assoc = geometry.associativity
    if assoc == 1:
        # Replacement never arbitrates: one resident block per set.
        resident = [-1] * geometry.num_sets

        def direct_mapped(start: int, end: int) -> None:
            for pos, block in enumerate(blocks[start:end], start):
                index = block & set_mask
                if resident[index] != block:
                    resident[index] = block
                    miss[pos] = 1

        return direct_mapped

    if replacement == "lru":
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

    # Mirrors CacheSet: first matching way, then the lowest invalid
    # way, and only a full set asks the policy for a victim.
    slots = [[-1] * assoc for _ in range(geometry.num_sets)]
    policies = [make_replacement(replacement, assoc) for _ in range(geometry.num_sets)]

    def object_driven(start: int, end: int) -> None:
        for pos, block in enumerate(blocks[start:end], start):
            index = block & set_mask
            ways = slots[index]
            policy = policies[index]
            try:
                way = ways.index(block)
            except ValueError:
                miss[pos] = 1
                try:
                    way = ways.index(-1)
                except ValueError:
                    way = policy.victim()
                ways[way] = block
                policy.fill(way)
            else:
                policy.touch(way)

    return object_driven

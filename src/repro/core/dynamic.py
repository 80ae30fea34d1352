"""Dynamic (phase-aware) policy families built on the interval hook.

Two concrete adaptive schemes prove the ``on_interval`` protocol
(:mod:`repro.core.interval`), both drawn from the related-work list in
PAPERS.md rather than the source paper itself:

* ``dri`` — miss-rate-threshold set resizing in the spirit of the
  DRI-cache family (Mittal's survey of dynamic cache reconfiguration):
  upsize when the observed interval miss rate climbs above a bound,
  downsize toward the energy-efficient small configuration while the
  miss rate stays low.  Resizing changes only the number of sets
  (:meth:`~repro.cache.geometry.CacheGeometry.resized`) and flushes the
  array (invalidate-all).
* ``levelpred`` — an L1-bypass level predictor after Jalili & Erez's
  cache-level prediction: when an interval's miss rate crosses a
  threshold the phase is presumed to thrash L1, so subsequent accesses
  bypass it and go straight to the next level.  Bypassed intervals
  observe a 100% L1 miss rate by construction, so the predictor cannot
  re-learn from the rate alone; instead each bypass engagement lasts a
  fixed probation (``probe_intervals`` ticks) and then releases,
  re-sampling the phase with the cache enabled.

Probes themselves stay conventional parallel accesses — these families
adapt *shape and level*, not the probe schedule, so they compose with
the paper's static way-prediction axis rather than competing with it.
Neither kind has an inlined fast-sim kernel: under ``backend="fast"``
the array-state d-cache engine drives the policy object through its
adapter kernel (:func:`~repro.fastsim.kernels.policy_kernel`), flushing
and bypassing exactly as the reference engine does, so sim-mode
reports stay byte-identical across backends.
"""

from __future__ import annotations

from typing import Optional

from repro.core.interval import IntervalStats, ReconfigureAction
from repro.core.kinds import KIND_PARALLEL
from repro.core.policy import DCachePolicy, MODE_PARALLEL, ProbePlan
from repro.core.registry import register_policy

__all__ = ["DriResizePolicy", "LevelPredictorPolicy"]

_PLAN = ProbePlan(mode=MODE_PARALLEL, kind=KIND_PARALLEL)


@register_policy(
    "dri",
    side="dcache",
    label="DRI resize",
    params={"miss_hi": 0.05, "miss_lo": 0.01, "min_kb": 4, "max_kb": 64},
)
class DriResizePolicy(DCachePolicy):
    """Miss-rate-threshold set resizing (DRI-style).

    Params:
        miss_hi: interval miss rate above which the cache doubles
            (performance escape hatch).
        miss_lo: interval miss rate below which the cache halves
            (harvest energy while the working set is small).
        min_kb / max_kb: resizing bounds in KiB.
    """

    name = "dri"

    def __init__(
        self,
        miss_hi: float = 0.05,
        miss_lo: float = 0.01,
        min_kb: int = 4,
        max_kb: int = 64,
    ) -> None:
        if not 0.0 <= miss_lo <= miss_hi <= 1.0:
            raise ValueError(
                f"need 0 <= miss_lo <= miss_hi <= 1, got lo={miss_lo} hi={miss_hi}"
            )
        if not 1 <= min_kb <= max_kb:
            raise ValueError(f"need 1 <= min_kb <= max_kb, got min={min_kb} max={max_kb}")
        self.miss_hi = miss_hi
        self.miss_lo = miss_lo
        self.min_bytes = min_kb * 1024
        self.max_bytes = max_kb * 1024

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        return _PLAN

    def on_interval(self, stats: IntervalStats) -> Optional[ReconfigureAction]:
        if not stats.accesses:
            return None
        geometry = stats.geometry
        size = geometry.size_bytes
        rate = stats.miss_rate
        if rate > self.miss_hi and size < self.max_bytes:
            return ReconfigureAction(geometry=geometry.resized(size * 2))
        if rate < self.miss_lo and size > self.min_bytes:
            # Halving must still hold one set; resized() validates, but
            # guard here so a tight min_kb never raises mid-run.
            floor = geometry.block_bytes * geometry.associativity
            if size // 2 >= max(self.min_bytes, floor):
                return ReconfigureAction(geometry=geometry.resized(size // 2))
        return None


@register_policy(
    "levelpred",
    side="dcache",
    label="Level predictor",
    params={"bypass_threshold": 0.5, "probe_intervals": 1},
)
class LevelPredictorPolicy(DCachePolicy):
    """L1-bypass level prediction (Jalili & Erez-style).

    Params:
        bypass_threshold: interval miss rate at or above which the next
            phase is predicted to miss L1, engaging bypass.
        probe_intervals: how many intervals a bypass engagement lasts
            before the predictor re-samples with the cache enabled.
    """

    name = "levelpred"

    def __init__(self, bypass_threshold: float = 0.5, probe_intervals: int = 1) -> None:
        if not 0.0 < bypass_threshold <= 1.0:
            raise ValueError(
                f"bypass_threshold must be in (0, 1], got {bypass_threshold}"
            )
        if probe_intervals < 1:
            raise ValueError(f"probe_intervals must be >= 1, got {probe_intervals}")
        self.bypass_threshold = bypass_threshold
        self.probe_intervals = probe_intervals
        self._remaining = 0

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        return _PLAN

    def on_interval(self, stats: IntervalStats) -> Optional[ReconfigureAction]:
        if stats.bypassed:
            self._remaining -= 1
            if self._remaining <= 0:
                return ReconfigureAction(bypass=False)
            return None
        if stats.accesses and stats.miss_rate >= self.bypass_threshold:
            self._remaining = self.probe_intervals
            return ReconfigureAction(bypass=True)
        return None

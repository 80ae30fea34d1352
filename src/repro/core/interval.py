"""Phase-aware policy hooks: interval statistics and reconfiguration.

The paper's way-prediction/selective-DM trade-off is chosen statically
per run, but the dynamic-reconfiguration literature (Mittal's DRI-cache
survey, Jalili & Erez's cache-level prediction — see PAPERS.md) adapts
the cache *mid-run* from observed phase behaviour.  This module defines
the contract that makes registered policies phase-aware:

* :class:`IntervalStats` — an immutable snapshot of one observation
  window (every N memory accesses in ``mode="missrate"``, every N
  cycles in ``mode="sim"``), carrying per-window and cumulative
  counters plus the cache's current shape.
* ``PolicyTick`` protocol — any registered policy *may* implement
  ``on_interval(stats) -> Optional[ReconfigureAction]``.  Policies that
  do are *dynamic* (:func:`is_dynamic_policy`); everyone else never
  sees a tick and behaves exactly as before.
* :class:`ReconfigureAction` — what a tick may request: a new
  :class:`~repro.cache.geometry.CacheGeometry` (flush-and-resize)
  and/or an L1-bypass toggle.

Reconfigure semantics (the documented flush policy):

* **Invalidate-all.**  Applying a new geometry drops every resident
  block and resets replacement state — the array restarts cold, as if
  freshly constructed.  In full simulation dirty blocks are written
  back to the next level first, so no stores are lost.  This is the
  semantics DRI-style resizing literature assumes, and it is what
  keeps the batched/vector tiers byte-identical to the reference:
  "fresh state at a deterministic point" replays the same everywhere.
* **Cumulative statistics.**  Counters (loads, misses, probe events,
  ...) are never reset by a reconfiguration; results aggregate across
  the whole run regardless of how many times the shape changed.  In
  full simulation a resize closes an energy epoch: the events before it
  are priced for the old geometry, the events after it for the new.
* **Stable block decomposition.**  A reconfiguration may change
  capacity and associativity but must preserve ``block_bytes`` and
  ``address_bits`` (:func:`validate_reconfigure`); the block-address
  stream is decoded once per run on the batched tiers.

Ticks fire *before* the access (missrate) or cycle (sim) that crosses
the boundary: with ``interval=N`` the k-th tick is delivered just
before position/cycle ``k*N`` is processed, and describes the window
``[(k-1)*N, k*N)``.  Warmup does not gate observation — policies see
every access in the window — while result counting keeps its usual
warmup gating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.geometry import CacheGeometry

__all__ = [
    "IntervalStats",
    "ReconfigureAction",
    "is_dynamic_policy",
    "validate_reconfigure",
]


@dataclass(frozen=True)
class IntervalStats:
    """One observation window, as delivered to ``on_interval``.

    Attributes:
        index: 0-based tick number within the run.
        position: stream position (missrate mode) or cycle (sim mode)
            at which the tick fires; the window it describes is
            ``[position - interval, position)``.
        interval: the configured tick period.
        accesses: memory accesses observed in the window (warmup
            included — observation is not gated the way counting is).
        loads: load accesses in the window.
        stores: store accesses in the window.
        misses: misses in the window.
        way_mispredicts: mispredicted first probes in the window
            (sim mode; always 0 in missrate mode, which has no
            prediction machinery).
        energy_delta: cache + prediction energy (REU) of the window's
            events, each priced for the geometry it happened in (sim
            mode; 0.0 in missrate).
        total_accesses: cumulative accesses since the start of the run.
        total_misses: cumulative misses since the start of the run.
        geometry: the cache's *current* shape (reflecting any earlier
            reconfigurations).
        bypassed: whether L1 bypass is currently engaged.
    """

    index: int
    position: int
    interval: int
    accesses: int
    loads: int
    stores: int
    misses: int
    way_mispredicts: int
    energy_delta: float
    total_accesses: int
    total_misses: int
    geometry: CacheGeometry
    bypassed: bool

    @property
    def miss_rate(self) -> float:
        """The window's miss ratio in [0, 1] (0.0 for an empty window)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def total_miss_rate(self) -> float:
        """Cumulative miss ratio in [0, 1] since the start of the run."""
        return self.total_misses / self.total_accesses if self.total_accesses else 0.0


@dataclass(frozen=True)
class ReconfigureAction:
    """What one tick may request; ``None`` fields leave state unchanged.

    Attributes:
        geometry: flush the cache and rebuild it with this shape
            (invalidate-all semantics; see the module docstring).
        bypass: engage (``True``) or release (``False``) L1 bypass:
            while engaged, accesses skip the L1 entirely and count as
            misses served by the next level, leaving cache state
            untouched.
    """

    geometry: Optional[CacheGeometry] = None
    bypass: Optional[bool] = None


def is_dynamic_policy(policy: object) -> bool:
    """Whether ``policy`` (an instance *or* factory class) takes ticks.

    Detection is structural: anything with a callable ``on_interval``
    attribute participates.  The policy base classes deliberately do
    not define the hook, so static policies stay non-dynamic and are
    never ticked (and therefore never pay for interval bookkeeping).
    """
    return callable(getattr(policy, "on_interval", None))


def validate_reconfigure(current: CacheGeometry, new: CacheGeometry) -> None:
    """Reject reconfigurations that change the block decomposition.

    Capacity and associativity may change freely; ``block_bytes`` and
    ``address_bits`` are fixed for the life of a run (the batched tiers
    decode the trace into block addresses exactly once).
    """
    if new.block_bytes != current.block_bytes:
        raise ValueError(
            "reconfigure may not change block_bytes "
            f"({current.block_bytes} -> {new.block_bytes})"
        )
    if new.address_bits != current.address_bits:
        raise ValueError(
            "reconfigure may not change address_bits "
            f"({current.address_bits} -> {new.address_bits})"
        )


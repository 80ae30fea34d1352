"""Cache access statistics.

The counters here mirror the quantities the paper reports: hit/miss
rates (Table 4), the access-type breakdown of Figures 6-8 and 10, and
the L1 events whose counts :mod:`repro.energy.pricing` prices after a
run (the engines themselves charge no energy).  Every field is read by
a price, a :class:`~repro.sim.results.SimResult` section or the
interval driver; a counter nothing reads does not belong here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.utils.statsutil import safe_ratio


@dataclass
class CacheStats:
    """Aggregate counters for one cache.

    ``access_kinds`` counts accesses by how they were performed (the
    bottom graphs of Figures 6-8/10): ``direct_mapped``, ``parallel``,
    ``way_predicted``, ``sequential``, ``mispredicted``, plus the i-cache
    source categories ``sawp_correct``, ``btb_correct``, ``no_prediction``.

    ``tag_only_probes`` counts misses known from the tags alone (a
    sequential load's or a store's); ``store_writes`` counts the word
    writes of stores (a fill is counted in ``fills`` only);
    ``table_accesses`` counts prediction-table reads and writes.
    """

    loads: int = 0
    stores: int = 0
    load_hits: int = 0
    store_hits: int = 0
    store_writes: int = 0
    fills: int = 0
    second_probes: int = 0
    predictions: int = 0
    correct_predictions: int = 0
    parallel_reads: int = 0
    one_way_reads: int = 0
    tag_only_probes: int = 0
    table_accesses: int = 0
    victim_searches: int = 0
    way_field_accesses: int = 0
    access_kinds: Dict[str, int] = field(default_factory=dict)

    # -------------------------------------------------------------- #
    # Derived quantities
    # -------------------------------------------------------------- #

    @property
    def accesses(self) -> int:
        """Total loads + stores."""
        return self.loads + self.stores

    @property
    def hits(self) -> int:
        """Total hits."""
        return self.load_hits + self.store_hits

    @property
    def misses(self) -> int:
        """Total misses."""
        return self.accesses - self.hits

    @property
    def load_misses(self) -> int:
        """Load misses."""
        return self.loads - self.load_hits

    @property
    def miss_rate(self) -> float:
        """Overall miss ratio in [0, 1]."""
        return safe_ratio(self.misses, self.accesses)

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of predicted accesses whose prediction was correct."""
        return safe_ratio(self.correct_predictions, self.predictions)

    def count_kind(self, kind: str, amount: int = 1) -> None:
        """Increment the access-kind breakdown counter ``kind``."""
        self.access_kinds[kind] = self.access_kinds.get(kind, 0) + amount

    def kind_fraction(self, kind: str) -> float:
        """Return ``kind``'s share of all kind-classified accesses."""
        total = sum(self.access_kinds.values())
        return safe_ratio(self.access_kinds.get(kind, 0), total)

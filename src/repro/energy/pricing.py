"""Cache energy from event counts.

The cache engines only count events on their
:class:`~repro.cache.stats.CacheStats`; this module prices the counts
after the run with Cacti-lite per-event energies, as the paper prices
simulated event counts with Cacti's (Table 3).  Every backend tier
counts the same events, so every tier reports the same energy.

An L1 load costs a parallel read, a one-way read or a tag-only probe,
plus a second probe when its predicted way was wrong; a store costs a
word write, plus a tag-only probe when it misses; a miss costs a block
fill (:class:`~repro.energy.cactilite.CacheEnergyModel` prices each).
The prediction structures cost a table access, a victim-list search or
a BTB/RAS way-field access (:class:`~repro.energy.tables.PredictionStructureEnergy`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.cache.stats import CacheStats
from repro.energy.cactilite import CacheEnergyModel
from repro.energy.tables import PredictionStructureEnergy


def l1_events(stats: CacheStats) -> Tuple[int, ...]:
    """An L1's event counts, in the order :func:`l1_energy` prices them.

    Subtracting two snapshots elementwise gives the events between them.
    """
    return (
        stats.parallel_reads,
        stats.one_way_reads,
        stats.tag_only_probes,
        stats.second_probes,
        stats.store_writes,
        stats.fills,
        stats.table_accesses,
        stats.victim_searches,
        stats.way_field_accesses,
    )


def l1_energy(
    model: CacheEnergyModel,
    pred_energy: PredictionStructureEnergy,
    events: Sequence[int],
) -> Tuple[float, float]:
    """The (cache, prediction) energy of an L1's events (see
    :func:`l1_events`), priced for the geometry ``model`` describes."""
    (parallel, one_way, tag_only, second, stores, fills,
     tables, victim_searches, way_fields) = events
    cache = (
        parallel * model.parallel_read()
        + one_way * model.one_way_read()
        + tag_only * (model.addr_route + model.tag_all_read)
        + second * model.extra_probe()
        + stores * model.store_write()
        + fills * model.fill_write()
    )
    prediction = (
        tables * pred_energy.table_access
        + victim_searches * pred_energy.victim_list_search
        + way_fields * pred_energy.way_field_access
    )
    return cache, prediction


def l2_energy(model: CacheEnergyModel, stats: CacheStats) -> float:
    """The unified L2's energy.

    The L2 uses sequential (tag-then-way) access as in the Alpha 21164,
    so each access costs one-way energy.
    """
    return stats.accesses * model.one_way_read() + stats.fills * model.fill_write()

"""Cacti-lite: analytical cache energy and timing from geometry.

This module stands in for the Cacti tool the paper used (Wilson & Jouppi
tech report, scaled to 0.25 um).  It answers the two questions the
evaluation needs:

* energy per access event, broken into the components the paper's design
  options trade off (tag array, per-data-way read, output network,
  writes) — Table 3;
* access time, used for the sequential-vs-parallel comparison (~60%
  slower) and the XOR-table timing argument (a 1024-entry table lookup is
  ~48% of the cache access time) — sections 2.1 and 4.2.

See :mod:`repro.energy.constants` for the calibration story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry
from repro.energy.constants import TECH_0_25_UM, TechnologyConstants


@dataclass(frozen=True)
class CacheEnergyModel:
    """Per-event energies (REU) for one cache geometry.

    :mod:`repro.energy.pricing` combines these primitives:

    * parallel load hit:   ``addr + tag_all_read + N*data_way_read + output(N)``
    * one-way load hit:    ``addr + tag_all_read + data_way_read + output(1)``
      (sequential, correctly way-predicted, and direct-mapped accesses)
    * tag-only probe:      ``addr + tag_all_read`` (sequential load miss,
      store miss)
    * extra probe:         ``data_way_read + output(1)`` (mispredictions)
    * store hit:           ``addr + tag_all_read + data_way_write``
    * fill (block install):``addr + data_block_write + tag_way_write``
    """

    addr_route: float
    tag_way_read: float
    tag_all_read: float
    tag_way_write: float
    data_way_read: float
    data_way_write: float
    data_block_write: float
    output_single: float
    output_parallel: float
    associativity: int

    # ------------------------------------------------------------------ #
    # Composite events
    # ------------------------------------------------------------------ #

    def parallel_read(self) -> float:
        """Energy of a conventional parallel read (all ways probed)."""
        return (
            self.addr_route
            + self.tag_all_read
            + self.associativity * self.data_way_read
            + self.output_parallel
        )

    def one_way_read(self) -> float:
        """Energy of a one-way read (sequential / way-predicted / DM)."""
        return self.addr_route + self.tag_all_read + self.data_way_read + self.output_single

    def extra_probe(self) -> float:
        """Additional energy of a second data-array probe (misprediction)."""
        return self.data_way_read + self.output_single

    def store_write(self) -> float:
        """Energy of a store hit: tag check then a single-way word write."""
        return self.addr_route + self.tag_all_read + self.data_way_write

    def fill_write(self) -> float:
        """Energy of installing a full block plus its tag."""
        return self.addr_route + self.data_block_write + self.tag_way_write


@dataclass(frozen=True)
class CacheTimingModel:
    """Access-time estimates (ns) for one geometry.

    ``parallel_access_ns`` is ``max(tag, data) + mux``; sequential access
    serializes tag and data (paper Figure 1b), which is what produces the
    ~60% slowdown quoted in section 1.
    """

    tag_ns: float
    data_ns: float
    mux_ns: float

    @property
    def parallel_access_ns(self) -> float:
        """Parallel tag+data probe time."""
        return max(self.tag_ns, self.data_ns) + self.mux_ns


class CactiLite:
    """Analytical model instance for one technology node."""

    def __init__(self, tech: TechnologyConstants = TECH_0_25_UM) -> None:
        self.tech = tech

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #

    def energy_model(self, geometry: CacheGeometry) -> CacheEnergyModel:
        """Build the per-event energy table for ``geometry``."""
        tech = self.tech
        # Only the addressed subarray's bitlines swing; see
        # TechnologyConstants.max_bitline_rows.
        rows = min(geometry.num_sets, tech.max_bitline_rows)
        data_cols = geometry.block_bytes * 8
        tag_cols = geometry.tag_bits + tech.tag_status_bits

        addr_route = tech.c_addr_route * math.sqrt(geometry.size_bytes)

        data_way_read = (
            tech.c_bitline_read * rows * data_cols
            + (tech.c_senseamp + tech.c_wordline) * data_cols
        )
        data_way_write = (
            tech.c_bitline_write * rows * tech.store_write_bits
            + tech.c_wordline * tech.store_write_bits
        )
        data_block_write = (
            tech.c_bitline_write * rows * data_cols + tech.c_wordline * data_cols
        )

        tag_way_read = (
            tech.c_bitline_read * rows * tag_cols
            + (tech.c_senseamp + tech.c_tag_compare) * tag_cols
        )
        tag_way_write = tech.c_bitline_write * rows * tag_cols + tech.c_wordline * tag_cols

        output_single = tech.c_output_drive * tech.output_bits
        output_parallel = output_single + tech.c_way_mux * (
            geometry.associativity - 1
        ) * tech.output_bits

        return CacheEnergyModel(
            addr_route=addr_route,
            tag_way_read=tag_way_read,
            tag_all_read=geometry.associativity * tag_way_read,
            tag_way_write=tag_way_write,
            data_way_read=data_way_read,
            data_way_write=data_way_write,
            data_block_write=data_block_write,
            output_single=output_single,
            output_parallel=output_parallel,
            associativity=geometry.associativity,
        )

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    def _array_time_units(self, capacity_bytes: float) -> float:
        return self.tech.t_fixed + self.tech.t_sqrt * math.sqrt(capacity_bytes)

    def timing_model(self, geometry: CacheGeometry) -> CacheTimingModel:
        """Build the access-time estimate for ``geometry``."""
        tech = self.tech
        data_units = self._array_time_units(geometry.size_bytes)
        tag_bytes = geometry.num_blocks * (geometry.tag_bits + tech.tag_status_bits) / 8.0
        tag_units = self._array_time_units(tag_bytes)
        return CacheTimingModel(
            tag_ns=tag_units * tech.t_ns_per_unit,
            data_ns=data_units * tech.t_ns_per_unit,
            mux_ns=tech.t_mux_units * tech.t_ns_per_unit,
        )

    def table_lookup_time_ns(self, entries: int, bits_per_entry: int) -> float:
        """Lookup time of a small prediction table (used in section 4.2)."""
        capacity_bytes = entries * bits_per_entry / 8.0
        return self._array_time_units(capacity_bytes) * self.tech.t_ns_per_unit

    def table_vs_cache_time_ratio(
        self, entries: int, bits_per_entry: int, geometry: CacheGeometry
    ) -> float:
        """Ratio of table lookup time to cache access time.

        The paper reports ~0.48 for a 1024-entry table against the 16K
        4-way cache, which is what makes XOR-based way-prediction hard to
        fit in the address-generation critical path.
        """
        cache_ns = self.timing_model(geometry).parallel_access_ns
        return self.table_lookup_time_ns(entries, bits_per_entry) / cache_ns

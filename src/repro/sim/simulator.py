"""The simulator: builds a system from a config and runs one trace.

Two interchangeable backends build the caches, one class per backend
and cache side, the unified L2 included:

* ``"reference"`` — the per-access object-dispatch engines
  (:class:`~repro.core.engine.DCacheEngine`,
  :class:`~repro.core.icache.ICacheEngine`) over
  :class:`~repro.cache.hierarchy.L2Cache`;
* ``"fast"`` — the array-state engines (:mod:`repro.fastsim`) over
  :class:`~repro.fastsim.l2.FastL2`, byte-identical by contract
  (enforced by the differential suite).  They host every registered
  policy: the paper's static d-cache kinds run inlined kernels, while
  dynamic kinds and plugins drive the policy object through one adapter
  kernel.

Both L2s answer the same three calls, and the L1 engines call the L2
directly.

The engines of every backend only count events.  After the run the
simulator prices the counts (:mod:`repro.energy.pricing`): the L2's
once, each L1's per geometry epoch, since a ``dri`` resize changes
what every d-cache event costs.  Equal counts give equal energy, so the
energy of every tier is the same by construction.

The backend also selects the pipeline implementation for ``run``: the
fast backend replays the pre-encoded instruction arrays through the
array-state core and fetch unit (:class:`~repro.fastsim.core.FastCore`,
:class:`~repro.fastsim.fetch.FastFetchUnit`), which drive the fast
engines through their tuple methods in the reference pipeline's access
order, so the mode="sim" contract stays byte-identical end to end.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache, MainMemory
from repro.cache.stats import CacheStats
from repro.core.engine import DCacheEngine
from repro.core.factory import build_dcache_policy, build_icache_policy
from repro.core.icache import ICacheEngine
from repro.core.interval import IntervalStats, is_dynamic_policy
from repro.fastsim import FastCore, FastDCacheEngine, FastFetchUnit, FastICacheEngine, FastL2
from repro.cpu.fetch import FetchUnit
from repro.cpu.ooo import OutOfOrderCore
from repro.cpu.stats import CoreStats
from repro.energy.cactilite import CactiLite
from repro.energy.pricing import l1_energy, l1_events, l2_energy
from repro.energy.processor import WattchLite, WattchParameters
from repro.energy.tables import PredictionStructureEnergy
from repro.sim.config import SystemConfig
from repro.sim.results import (
    CoreMetrics,
    DynamicsMetrics,
    EnergyMetrics,
    L1Metrics,
    L2Metrics,
    SimResult,
)
from repro.workload.trace import Trace


#: Backends a run can request (see the module docstring).
BACKENDS = ("reference", "fast")


class _EpochEnergy:
    """Prices one L1's event counts, one geometry epoch at a time.

    A resize changes what every event costs, so the events since the
    last resize are priced for the geometry they happened in and added
    to the energy of the closed epochs.
    """

    def __init__(
        self,
        stats: CacheStats,
        geometry: CacheGeometry,
        pred_energy: PredictionStructureEnergy,
    ) -> None:
        self._stats = stats
        self._pred_energy = pred_energy
        self._model = CactiLite().energy_model(geometry)
        self._start = l1_events(stats)
        self._closed = (0.0, 0.0)

    def total(self) -> Tuple[float, float]:
        """The (cache, prediction) energy of every event so far."""
        events = [now - start for now, start in zip(l1_events(self._stats), self._start)]
        cache, prediction = l1_energy(self._model, self._pred_energy, events)
        return self._closed[0] + cache, self._closed[1] + prediction

    def close_epoch(self, geometry: CacheGeometry) -> None:
        """Price the open epoch; later events are priced for ``geometry``."""
        self._closed = self.total()
        self._start = l1_events(self._stats)
        self._model = CactiLite().energy_model(geometry)


class _IntervalDriver:
    """Delivers interval ticks to a dynamic d-cache policy.

    Reads the engine's cumulative stats and priced energy at each tick,
    hands the window delta to ``policy.on_interval``, and applies any
    returned action to the engine: a resize closes the energy epoch
    first.  Both d-cache engines (reference and fast) expose ``policy``,
    ``reconfigure`` and ``bypassed``.  ``way_mispredicts`` is the
    window's second-probe count and ``energy_delta`` the window's
    d-cache + prediction energy — the two signals the paper's section 4
    feedback schemes key on.
    """

    def __init__(
        self,
        engine: Union[DCacheEngine, FastDCacheEngine],
        interval: int,
        energy: _EpochEnergy,
    ) -> None:
        self.engine = engine
        self.interval = interval
        self.energy = energy
        self.ticks = 0
        self.reconfigurations = 0
        self.bypass_toggles = 0
        #: Cumulative (accesses, loads, misses, second probes, energy)
        #: at the previous tick.
        self._prev = (0, 0, 0, 0, 0.0)

    def __call__(self, cycle: int) -> None:
        engine = self.engine
        stats = engine.stats
        now = (stats.accesses, stats.loads, stats.misses, stats.second_probes,
               sum(self.energy.total()))
        accesses, loads, misses, mispredicts, energy = (
            current - previous for current, previous in zip(now, self._prev))
        self._prev = now
        tick_stats = IntervalStats(
            index=self.ticks,
            position=cycle,
            interval=self.interval,
            accesses=accesses,
            loads=loads,
            stores=accesses - loads,
            misses=misses,
            way_mispredicts=mispredicts,
            energy_delta=energy,
            total_accesses=stats.accesses,
            total_misses=stats.misses,
            geometry=engine.geometry,
            bypassed=engine.bypassed,
        )
        action = engine.policy.on_interval(tick_stats)
        self.ticks += 1
        if action is None:
            return
        if action.geometry is not None and action.geometry != engine.geometry:
            self.energy.close_epoch(action.geometry)
            engine.reconfigure(action.geometry)  # validates the change
            self.reconfigurations += 1
        if action.bypass is not None and action.bypass != engine.bypassed:
            engine.bypassed = action.bypass
            self.bypass_toggles += 1


class Simulator:
    """One system instance; construct fresh per run (state is not reusable).

    Args:
        config: the system to build.
        wattch: processor-energy parameters (defaults to the paper's).
        backend: ``"reference"`` or ``"fast"`` (see the module
            docstring).
        interval: tick period in *cycles*; with a dynamic d-cache
            policy the run delivers
            :class:`~repro.core.interval.IntervalStats` to its
            ``on_interval`` hook every ``interval`` cycles and applies
            any returned reconfiguration/bypass action.  0 (default)
            disables ticking; static policies are never ticked.
    """

    def __init__(
        self,
        config: SystemConfig,
        wattch: Optional[WattchParameters] = None,
        backend: str = "reference",
        interval: int = 0,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
        if interval < 0:
            raise ValueError(f"interval must be >= 0 (0 = no ticks), got {interval}")
        self.config = config
        self.backend = backend
        self.interval = interval

        # Backing hierarchy (shared, unified L2 as in Table 1).
        memory = MainMemory(
            base_latency=config.memory_latency,
            cycles_per_chunk=config.memory_cycles_per_chunk,
            chunk_bytes=config.memory_chunk_bytes,
        )
        l2_class = L2Cache if backend == "reference" else FastL2
        self.l2 = l2_class(
            geometry=config.l2.geometry(),
            latency=config.l2.latency,
            memory=memory,
        )
        self._l2_energy_model = CactiLite().energy_model(config.l2.geometry())

        # Prediction-structure energies sized from the policy specs
        # (policies that declare no tables fall back to paper sizes;
        # the structures only cost energy when a policy uses them).
        dspec = config.dcache_policy
        pred_energy = PredictionStructureEnergy.build(
            table_entries=dspec.get("table_entries", 1024),
            victim_entries=dspec.get("victim_entries", 16),
            way_bits=max(config.dcache.geometry().fields.way_bits, 1),
        )
        ipred_energy = PredictionStructureEnergy.build(
            table_entries=config.icache_policy.get("sawp_entries", 1024),
            table_bits=max(config.icache.geometry().fields.way_bits, 1),
            way_bits=max(config.icache.geometry().fields.way_bits, 1),
        )

        # L1 engines: one class per backend and cache side.  The fast
        # d-cache takes the spec, so static kinds get inlined kernels.
        dgeometry = config.dcache.geometry()
        dcache_args = dict(
            geometry=dgeometry,
            l2=self.l2,
            base_latency=config.dcache.latency,
        )
        if backend == "reference":
            self.dcache = DCacheEngine(policy=build_dcache_policy(dspec), **dcache_args)
            icache_engine = ICacheEngine
        else:
            self.dcache = FastDCacheEngine(spec=dspec, **dcache_args)
            icache_engine = FastICacheEngine
        igeometry = config.icache.geometry()
        self.icache = icache_engine(
            geometry=igeometry,
            l2=self.l2,
            base_latency=config.icache.latency,
            policy=build_icache_policy(config.icache_policy),
        )
        self._dcache_energy = _EpochEnergy(self.dcache.stats, dgeometry, pred_energy)
        self._icache_energy = _EpochEnergy(self.icache.stats, igeometry, ipred_energy)
        self.wattch = WattchLite(wattch if wattch is not None else WattchParameters())

    # ------------------------------------------------------------------ #

    def run(self, trace: Trace) -> SimResult:
        """Execute ``trace`` and assemble the result record."""
        core_stats = CoreStats()
        driver = None
        if self.interval > 0 and is_dynamic_policy(self.dcache.policy):
            driver = _IntervalDriver(self.dcache, self.interval, self._dcache_energy)
        tick_interval = self.interval if driver is not None else 0
        if self.backend == "reference":
            fetch_unit = FetchUnit(trace, self.icache, self.config.core, core_stats)
            OutOfOrderCore(
                self.config.core, fetch_unit, self.dcache, core_stats,
                interval=tick_interval, on_tick=driver,
            ).run()
        else:
            fast_fetch = FastFetchUnit(trace, self.icache, self.config.core, core_stats)
            FastCore(
                self.config.core, fast_fetch, self.dcache, core_stats,
                interval=tick_interval, on_tick=driver,
            ).run()

        # Price the counts; components with no energy are left out.
        l1d, pred_d = self._dcache_energy.total()
        l1i, pred_i = self._icache_energy.total()
        energy = {
            name: value
            for name, value in (
                ("l1_dcache", l1d), ("prediction_dcache", pred_d),
                ("l1_icache", l1i), ("prediction_icache", pred_i),
            )
            if value
        }
        l2_stats = self.l2.stats
        energy["l2"] = l2_energy(self._l2_energy_model, l2_stats)
        report = self.wattch.report(
            cycles=core_stats.cycles,
            fetched_instrs=core_stats.fetched,
            fetch_cycles=core_stats.fetch_cycles,
            dispatched_instrs=core_stats.dispatched,
            issued_instrs=core_stats.issued,
            int_ops=core_stats.int_ops,
            fp_ops=core_stats.fp_ops,
            mem_ops=core_stats.mem_ops,
            committed_instrs=core_stats.committed,
            cache_energies={
                "l1_icache": l1i + pred_i,
                "l1_dcache": l1d + pred_d,
                "l2": energy["l2"],
            },
        )

        def l1_metrics(stats) -> L1Metrics:
            return L1Metrics(
                loads=stats.loads,
                stores=stats.stores,
                load_misses=stats.load_misses,
                misses=stats.misses,
                predictions=stats.predictions,
                correct_predictions=stats.correct_predictions,
                second_probes=stats.second_probes,
                kinds=dict(stats.access_kinds),
            )

        dynamics = DynamicsMetrics()
        if driver is not None and driver.ticks > 0:
            dynamics = DynamicsMetrics(
                interval=self.interval,
                ticks=driver.ticks,
                reconfigurations=driver.reconfigurations,
                bypass_toggles=driver.bypass_toggles,
                bypassed_accesses=self.dcache.bypassed_accesses,
                final_size_bytes=self.dcache.geometry.size_bytes,
            )

        return SimResult(
            benchmark=trace.name,
            config_key=self.config.key(),
            core=CoreMetrics(
                instructions=len(trace),
                cycles=core_stats.cycles,
                committed=core_stats.committed,
                branches=core_stats.branches,
                branch_mispredicts=core_stats.branch_mispredicts,
                fetch_cycles=core_stats.fetch_cycles,
            ),
            dcache=l1_metrics(self.dcache.stats),
            icache=l1_metrics(self.icache.stats),
            l2=L2Metrics(accesses=l2_stats.accesses, misses=l2_stats.misses),
            energy=EnergyMetrics(
                components=energy,
                processor=dict(report.components),
            ),
            dynamics=dynamics,
        )

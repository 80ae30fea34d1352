"""Dynamic-policy suite: the interval hook, the dri/levelpred families,
runtime reconfiguration, the v8 cache key, and the ``dynamic``
experiment's CLI/service byte-identity.

The correctness bar mirrors the static suite: reference == fast
``MissRateResult`` equality under ticks (Hypothesis-driven, across
assoc x interval x warmup edges), and reference == fast
``SimResult.to_flat()`` and per-tick ``IntervalStats`` equality in
full-sim mode, where the fast tier hosts dynamic kinds on its own
d-cache engine.  The fast miss-rate replay must follow every flush with
a cold kernel and every bypass release by continuing on the kernel it
had, with identical results.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.dynamic import DriResizePolicy, LevelPredictorPolicy
from repro.core.interval import (
    IntervalStats,
    is_dynamic_policy,
    validate_reconfigure,
)
from repro.core.policy import MODE_SINGLE, ProbePlan
from repro.core.registry import get_policy, register_policy, unregister_policy
from repro.energy.cactilite import CactiLite
from repro.energy.pricing import l1_energy, l1_events
from repro.energy.tables import PredictionStructureEnergy
from repro.fastsim import FastDCacheEngine
from repro.fastsim.missrate import fast_miss_rate
from repro.sim import runner
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.results import DynamicsMetrics, SimResult
from repro.sim.simulator import Simulator
from repro.sweep.spec import RunSpec, SweepSpec
from repro.workload.generator import generate_trace
from repro.workload.instr import OP_LOAD, OP_STORE, Instr
from repro.workload.trace import Trace

from test_differential import SMALL, traces

DYNAMIC_KINDS = ("dri", "levelpred")


def _factory(kind: str, **params):
    """A zero-arg policy factory for the measure functions."""
    info = get_policy(kind, "dcache")
    if params:
        return lambda: info.build(**params)
    return info.build


def _stats(geometry: CacheGeometry, accesses: int, misses: int,
           bypassed: bool = False) -> IntervalStats:
    """A hand-built observation window for policy unit tests."""
    return IntervalStats(
        index=0, position=accesses, interval=accesses,
        accesses=accesses, loads=accesses, stores=0, misses=misses,
        way_mispredicts=0, energy_delta=0.0,
        total_accesses=accesses, total_misses=misses,
        geometry=geometry, bypassed=bypassed,
    )


# ------------------------------------------------------------------ #
# Policy families: unit behavior of on_interval
# ------------------------------------------------------------------ #


class TestDriPolicy:
    GEOMETRY = CacheGeometry(16 * 1024, 4, 32)

    def test_is_dynamic(self):
        assert is_dynamic_policy(DriResizePolicy())
        assert get_policy("dri", "dcache").dynamic

    def test_upsizes_on_high_miss_rate(self):
        action = DriResizePolicy().on_interval(_stats(self.GEOMETRY, 100, 50))
        assert action is not None
        assert action.geometry.size_bytes == 32 * 1024
        assert action.bypass is None

    def test_downsizes_on_low_miss_rate(self):
        action = DriResizePolicy().on_interval(_stats(self.GEOMETRY, 1000, 1))
        assert action is not None
        assert action.geometry.size_bytes == 8 * 1024

    def test_holds_between_thresholds(self):
        assert DriResizePolicy().on_interval(_stats(self.GEOMETRY, 100, 3)) is None

    def test_respects_bounds(self):
        at_max = DriResizePolicy(max_kb=16).on_interval(_stats(self.GEOMETRY, 100, 50))
        assert at_max is None
        at_min = DriResizePolicy(min_kb=16).on_interval(_stats(self.GEOMETRY, 1000, 1))
        assert at_min is None

    def test_empty_window_is_inert(self):
        assert DriResizePolicy().on_interval(_stats(self.GEOMETRY, 0, 0)) is None

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="miss_lo"):
            DriResizePolicy(miss_hi=0.01, miss_lo=0.5)
        with pytest.raises(ValueError, match="min_kb"):
            DriResizePolicy(min_kb=8, max_kb=4)


class TestLevelPredictorPolicy:
    GEOMETRY = CacheGeometry(16 * 1024, 4, 32)

    def test_engages_bypass_at_threshold(self):
        action = LevelPredictorPolicy().on_interval(_stats(self.GEOMETRY, 100, 50))
        assert action is not None and action.bypass is True
        assert action.geometry is None

    def test_below_threshold_is_inert(self):
        assert (
            LevelPredictorPolicy().on_interval(_stats(self.GEOMETRY, 100, 49)) is None
        )

    def test_probation_releases_after_probe_intervals(self):
        policy = LevelPredictorPolicy(probe_intervals=2)
        assert policy.on_interval(_stats(self.GEOMETRY, 100, 100)).bypass is True
        # First bypassed tick: probation continues.
        assert policy.on_interval(_stats(self.GEOMETRY, 100, 100, bypassed=True)) is None
        # Second bypassed tick: probation over, cache re-enabled.
        release = policy.on_interval(_stats(self.GEOMETRY, 100, 100, bypassed=True))
        assert release is not None and release.bypass is False

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="bypass_threshold"):
            LevelPredictorPolicy(bypass_threshold=0.0)
        with pytest.raises(ValueError, match="probe_intervals"):
            LevelPredictorPolicy(probe_intervals=0)


class TestValidateReconfigure:
    def test_rejects_block_size_change(self):
        with pytest.raises(ValueError, match="block"):
            validate_reconfigure(CacheGeometry(16384, 4, 32), CacheGeometry(16384, 4, 64))

    def test_accepts_resize_and_reassociation(self):
        validate_reconfigure(CacheGeometry(16384, 4, 32), CacheGeometry(32768, 4, 32))
        validate_reconfigure(CacheGeometry(16384, 4, 32), CacheGeometry(16384, 2, 32))


# ------------------------------------------------------------------ #
# Three-tier miss-rate equivalence under ticks (Hypothesis)
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("kind", DYNAMIC_KINDS)
@settings(max_examples=40)
@given(
    trace=traces(),
    warmup=st.sampled_from([0.0, 0.2, 0.95]),
    assoc=st.sampled_from([1, 2, 4, 8]),
    interval=st.sampled_from([1, 7, 32]),
)
def test_dynamic_miss_rate_identical(kind, trace, warmup, assoc, interval):
    """reference == fast under interval ticks, across the
    assoc x interval x warmup edges.  Thresholds are
    tightened so short Hypothesis traces actually trigger
    resizing/bypass actions."""
    geometry = CacheGeometry(1024, assoc, 32)
    params = (
        {"miss_hi": 0.2, "miss_lo": 0.05, "min_kb": 1, "max_kb": 4}
        if kind == "dri" else {"bypass_threshold": 0.3}
    )
    results = [
        measure(
            trace, geometry, warmup,
            interval=interval, policy_factory=_factory(kind, **params),
        )
        for measure in (measure_miss_rate, fast_miss_rate)
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", DYNAMIC_KINDS)
@settings(max_examples=10)
@given(trace=traces(), interval=st.sampled_from([16, 64, 1000]))
def test_dynamic_sim_identical(kind, trace, interval):
    """Full-sim mode: reference == fast to_flat() with ticks firing
    (the fast d-cache engine drives the dynamic policy through its
    adapter kernel, and the fast core must visit the same tick cycles)."""
    config = SMALL.with_dcache_policy(kind)
    reference = Simulator(config, backend="reference", interval=interval).run(trace)
    fast = Simulator(config, backend="fast", interval=interval).run(trace)
    assert json.dumps(reference.to_flat(), sort_keys=True) == json.dumps(
        fast.to_flat(), sort_keys=True
    )


def _run_recorded(config: SystemConfig, backend: str, trace: Trace):
    """One ticked sim run: the simulator, its result, and the addresses
    each flush wrote back, in order."""
    simulator = Simulator(config, backend=backend, interval=200)
    engine = simulator.dcache
    l2 = engine.l2
    reconfigure = engine.reconfigure
    writeback = l2.absorb_writeback
    flushed = []

    def recording_reconfigure(geometry):
        written = []

        def recording_writeback(addr):
            written.append(addr)
            writeback(addr)

        l2.absorb_writeback = recording_writeback
        reconfigure(geometry)
        del l2.absorb_writeback
        flushed.append(written)

    engine.reconfigure = recording_reconfigure
    return simulator, simulator.run(trace), flushed


@pytest.mark.parametrize(
    "kind, params, counter, fired",
    [
        ("dri", {"miss_hi": 0.3, "miss_lo": 0.1, "min_kb": 1, "max_kb": 8},
         "reconfigurations", 1),
        ("levelpred", {"bypass_threshold": 0.2}, "bypass_toggles", 2),
    ],
    ids=["dri-dirty-flush", "levelpred-release"],
)
def test_dynamic_sim_runs_on_fast_engine(kind, params, counter, fired):
    """Sim-mode dynamic kinds run on the fast d-cache engine, with
    results and per-tick observations equal to the reference tier.

    Tight thresholds make dri resize while holding dirty lines and
    levelpred engage and release bypass.  A recording subclass,
    registered as a plugin, captures every ``IntervalStats``: that pins
    ``energy_delta`` and ``way_mispredicts`` per tick, which
    ``to_flat()`` never sees.  So that those move, the subclass probes
    the direct-mapped way with a table read, and places odd blocks
    there, which after a resize depends on the new geometry.
    """
    info = get_policy(kind, "dcache")
    recording = f"recording_{kind}"

    @register_policy(recording, side="dcache", params=info.defaults())
    class RecordingPolicy(info.factory):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.ticks = []

        def plan_load(self, pc, addr, xor_handle):
            return ProbePlan(mode=MODE_SINGLE, kind="direct_mapped", table_reads=1)

        def placement_way(self, addr, fields):
            if fields.block_address(addr) % 2:
                return fields.direct_mapped_way(addr)
            return None

        def on_interval(self, stats):
            self.ticks.append(stats)
            return super().on_interval(stats)

    trace = generate_trace("gcc", 3_000, 0)
    try:
        config = SMALL.with_dcache_policy(recording, **params)
        reference, reference_result, reference_flushed = _run_recorded(
            config, "reference", trace)
        fast, fast_result, fast_flushed = _run_recorded(config, "fast", trace)
    finally:
        unregister_policy(recording, side="dcache")
    assert isinstance(fast.dcache, FastDCacheEngine)
    assert getattr(reference_result.dynamics, counter) >= fired
    if kind == "dri":
        assert any(reference_flushed)  # a resize wrote back dirty lines
    ticks = reference.dcache.policy.ticks
    assert any(tick.way_mispredicts for tick in ticks)
    assert reference_result.energy.components["prediction_dcache"] > 0
    assert fast_flushed == reference_flushed
    assert fast_result.to_flat() == reference_result.to_flat()
    assert fast.dcache.policy.ticks == ticks


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_dri_energy_is_priced_per_geometry_epoch(backend):
    """A resize changes what every d-cache event costs, so each epoch's
    events are priced for the geometry they happened in: the d-cache
    energy is the shared pricing of each epoch's count deltas, summed in
    epoch order.  Pricing every count for the final geometry gives a
    different number, so dropping the epochs cannot pass."""
    config = SMALL.with_dcache_policy(
        "dri", miss_hi=0.3, miss_lo=0.1, min_kb=1, max_kb=8)
    simulator = Simulator(config, backend=backend, interval=200)
    engine = simulator.dcache
    # (geometry, events at the epoch's start) per epoch.
    epochs = [(engine.geometry, l1_events(engine.stats))]
    reconfigure = engine.reconfigure

    def recording_reconfigure(geometry):
        epochs.append((geometry, l1_events(engine.stats)))
        reconfigure(geometry)

    engine.reconfigure = recording_reconfigure
    result = simulator.run(generate_trace("gcc", 3_000, 0))
    assert result.dynamics.reconfigurations == len(epochs) - 1 >= 1
    assert engine.geometry != epochs[0][0]

    # Sized as the simulator sizes them (dri declares no tables).
    pred_energy = PredictionStructureEnergy.build(
        way_bits=max(config.dcache.geometry().fields.way_bits, 1))
    ends = [start for _geometry, start in epochs[1:]] + [l1_events(engine.stats)]
    cache = prediction = 0.0
    for (geometry, start), end in zip(epochs, ends):
        deltas = [b - a for a, b in zip(start, end)]
        epoch_cache, epoch_prediction = l1_energy(
            CactiLite().energy_model(geometry), pred_energy, deltas)
        cache += epoch_cache
        prediction += epoch_prediction
    components = result.energy.components
    assert components["l1_dcache"] == cache
    assert components.get("prediction_dcache", 0.0) == prediction

    final_only, _ = l1_energy(CactiLite().energy_model(engine.geometry),
                              pred_energy, l1_events(engine.stats))
    assert final_only != pytest.approx(cache, rel=1e-6)


@pytest.mark.parametrize(
    "kind, params, counter, fired",
    [
        ("dri", {"miss_hi": 0.1, "miss_lo": 0.01, "min_kb": 1, "max_kb": 8},
         "reconfigurations", 1),
        ("levelpred", {"bypass_threshold": 0.05}, "bypass_toggles", 2),
    ],
    ids=["dri-flush", "levelpred-release"],
)
def test_missrate_follows_flushes_and_bypass_releases(kind, params, counter, fired):
    """A thrashing stream makes dri resize (each flush starts a cold
    kernel) and levelpred engage and release bypass (the kernel
    continues where it left off); the fast replay must match the
    reference exactly, dynamics counters included."""
    instrs = [
        Instr(0x1000 + 4 * i, OP_LOAD if i % 3 else OP_STORE,
              addr=(i * 0x520) & 0xFFFF0 or 0x40)
        for i in range(400)
    ]
    trace = Trace("thrash", instrs)
    geometry = CacheGeometry(1024, 2, 32)
    factory = _factory(kind, **params)
    reference = measure_miss_rate(
        trace, geometry, interval=50, policy_factory=factory)
    fast = fast_miss_rate(trace, geometry, interval=50, policy_factory=factory)
    assert getattr(reference, counter) >= fired  # the premise: actions fired
    assert reference == fast


# ------------------------------------------------------------------ #
# v8 cache key: interval and dynamic params are identity
# ------------------------------------------------------------------ #


class TestCacheKeyV8:
    CONFIG = SystemConfig()

    def test_interval_token_spelling(self):
        """The v8 payload token: ``static`` at 0, ``interval=N`` else."""
        assert runner._interval_token(0) == "static"
        assert runner._interval_token(512) == "interval=512"

    def test_interval_changes_the_key(self):
        static = runner.cache_key("gcc", self.CONFIG, 1000)
        ticked = runner.cache_key("gcc", self.CONFIG, 1000, interval=512)
        assert static != ticked

    def test_interval_values_never_collide(self):
        keys = {
            runner.cache_key("gcc", self.CONFIG, 1000, interval=n)
            for n in (0, 1, 512, 513)
        }
        assert len(keys) == 4

    def test_dynamic_params_change_the_key(self):
        base = self.CONFIG.with_dcache_policy("dri")
        tuned = self.CONFIG.with_dcache_policy("dri", miss_hi=0.1)
        assert runner.cache_key("gcc", base, 1000, interval=256) != runner.cache_key(
            "gcc", tuned, 1000, interval=256
        )

    def test_interval_replays_from_cache_and_reexecutes_on_change(self, monkeypatch, tmp_path):
        """Same spec resolves from the disk cache; changing the interval
        is a different entry and re-executes."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = SystemConfig(
            icache=CacheLevelConfig(1, 4, 32, 1),
            dcache=CacheLevelConfig(1, 4, 32, 1),
            l2=CacheLevelConfig(4, 4, 32, 6),
        ).with_dcache_policy("dri", miss_hi=0.2, miss_lo=0.05, min_kb=1, max_kb=4)
        first = runner.run_benchmark("gcc", config, 3000, mode="missrate", interval=64)
        cached = runner.load_cached("gcc", config, 3000, mode="missrate", interval=64)
        assert cached is not None
        assert json.dumps(cached.to_flat(), sort_keys=True) == json.dumps(
            first.to_flat(), sort_keys=True
        )
        assert runner.load_cached("gcc", config, 3000, mode="missrate", interval=65) is None


# ------------------------------------------------------------------ #
# Flats: the dynamics section
# ------------------------------------------------------------------ #


class TestDynamicsFlats:
    def _ticked(self) -> SimResult:
        result = SimResult(benchmark="x", config_key="k")
        result.dynamics = DynamicsMetrics(
            interval=256, ticks=9, reconfigurations=2, bypass_toggles=1,
            bypassed_accesses=300, final_size_bytes=32768,
        )
        return result

    def test_round_trip_with_ticks(self):
        flat = self._ticked().to_flat()
        assert flat["dynamics_ticks"] == 9
        restored = SimResult.from_flat(flat)
        assert restored.dynamics == self._ticked().dynamics
        assert restored.to_flat() == flat

    @pytest.mark.parametrize("mode", runner.RUN_MODES)
    def test_static_run_flat_carries_zero_dynamics(self, mode):
        """Every flat has one schema: a static run's carries the
        dynamics section, all zeros, and round-trips."""
        flat = runner.execute("gcc", SystemConfig(), 2_000, 0, mode, "fast").to_flat()
        assert tuple(sorted(flat)) == SimResult.flat_field_names()
        dynamics = {name: value for name, value in flat.items()
                    if name.startswith("dynamics_")}
        assert len(dynamics) == 6 and set(dynamics.values()) == {0}
        restored = SimResult.from_flat(flat)
        assert restored.dynamics == DynamicsMetrics()
        assert restored.to_flat() == flat

    def test_from_flat_without_section_is_stale(self):
        """A flat without the dynamics section (the pre-dynamics shape)
        is rejected as stale rather than read as zero dynamics."""
        flat = SimResult(benchmark="x", config_key="k").to_flat()
        stale = {name: value for name, value in flat.items()
                 if not name.startswith("dynamics_")}
        assert len(stale) == len(flat) - 6
        with pytest.raises(ValueError):
            SimResult.from_flat(stale)


# ------------------------------------------------------------------ #
# Spec and runner validation
# ------------------------------------------------------------------ #


class TestIntervalValidation:
    def test_runspec_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="interval"):
            RunSpec("gcc", SystemConfig(), 1000, interval=-1)

    def test_describe_names_the_interval(self):
        spec = RunSpec("gcc", SystemConfig(), 1000, interval=128)
        assert "[interval=128]" in spec.describe()
        assert "interval" not in RunSpec("gcc", SystemConfig(), 1000).describe()

    def test_from_grid_threads_interval(self):
        sweep = SweepSpec.from_grid(
            "s", ["gcc"], [SystemConfig()], 1000, interval=32)
        assert all(run.interval == 32 for run in sweep)

    def test_runner_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="interval"):
            runner.run_benchmark("gcc", SystemConfig(), 1000, interval=-5)

    def test_simulator_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="interval"):
            Simulator(SystemConfig(), interval=-1)

    def test_static_policy_at_interval_never_ticks(self):
        """A static config with interval > 0 runs tickless (no dynamics
        section) but still keys the cache separately."""
        result = runner.run_benchmark(
            "gcc", SystemConfig(), 3000, mode="missrate", interval=100,
            use_cache=False,
        )
        assert result.dynamics == DynamicsMetrics()

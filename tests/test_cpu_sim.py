"""Out-of-order core and simulator integration tests."""

import dataclasses
import pickle

import pytest

from repro.cpu.config import CoreConfig
from repro.sim import config as config_module
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.results import (
    performance_degradation,
    relative_energy,
    relative_energy_delay,
)
from repro.sim.runner import clear_caches, get_trace, run_benchmark
from repro.sim.simulator import Simulator


N = 12_000


@pytest.fixture(autouse=True)
def _isolate_caches():
    clear_caches()
    yield


class TestCoreConfig:
    def test_defaults_match_table1(self):
        config = CoreConfig()
        assert config.issue_width == 8
        assert config.rob_size == 64
        assert config.lsq_size == 32
        assert config.dcache_ports == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            CoreConfig(rob_size=0)


class TestSystemConfig:
    def test_key_stable_and_distinct(self):
        a, b = SystemConfig(), SystemConfig()
        assert a.key() == b.key()
        assert a.key() != a.with_dcache_policy("sequential").key()

    def test_key_is_built_once_per_instance(self, monkeypatch):
        """Repeated ``key()`` calls build the string once; a replaced
        config builds its own; the memo is invisible to equality,
        hashing, ``asdict`` and pickles."""
        built = []
        dumps = config_module.json.dumps
        monkeypatch.setattr(config_module.json, "dumps",
                            lambda *a, **k: built.append(1) or dumps(*a, **k))
        config = SystemConfig()
        fresh = pickle.dumps(config)
        key = config.key()
        assert config.key() is key and config.key() is key
        assert len(built) == 1
        assert pickle.dumps(config) == fresh
        assert config == SystemConfig() and hash(config) == hash(SystemConfig())
        assert dataclasses.asdict(config) == dataclasses.asdict(SystemConfig())
        assert "_key" not in repr(config)
        wider = config.with_dcache(size_kb=32)
        assert wider.key() != key
        assert len(built) == 2
        assert dataclasses.replace(wider, dcache=config.dcache).key() == key
        assert pickle.loads(pickle.dumps(wider)).key() == wider.key()

    def test_with_helpers(self):
        config = SystemConfig().with_dcache(size_kb=32).with_icache(associativity=8)
        assert config.dcache.size_kb == 32
        assert config.icache.associativity == 8

    def test_cache_level_geometry(self):
        geometry = CacheLevelConfig(16, 4, 32, 1).geometry()
        assert geometry.num_sets == 128

    def test_describe(self):
        assert "parallel" in SystemConfig().describe()


class TestSimulatorRuns:
    def test_all_instructions_commit(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        assert result.core.committed == N
        assert result.cycles > 0

    def test_ipc_sane(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        assert 0.2 < result.ipc < 8.0

    def test_deterministic(self):
        a = Simulator(SystemConfig()).run(get_trace("gcc", N))
        b = Simulator(SystemConfig()).run(get_trace("gcc", N))
        assert a.cycles == b.cycles
        assert a.energy == b.energy

    def test_energy_components_present(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        assert result.energy.components["l1_dcache"] > 0
        assert result.energy.components["l1_icache"] > 0
        assert result.energy.components["l2"] > 0
        assert result.energy.processor_total > result.energy.components["l1_dcache"]

    def test_memory_accounting_consistent(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        summary = get_trace("gcc", N).summary()
        assert result.dcache.loads == summary.loads
        assert result.dcache.stores == summary.stores

    def test_sequential_slower_than_parallel(self):
        base = Simulator(SystemConfig()).run(get_trace("gcc", N))
        seq = Simulator(SystemConfig().with_dcache_policy("sequential")).run(
            get_trace("gcc", N)
        )
        assert seq.cycles >= base.cycles
        assert seq.energy.dcache < base.energy.dcache

    def test_oracle_saves_energy_no_slowdown(self):
        base = Simulator(SystemConfig()).run(get_trace("gcc", N))
        oracle = Simulator(SystemConfig().with_dcache_policy("oracle")).run(
            get_trace("gcc", N)
        )
        assert oracle.cycles == base.cycles
        assert oracle.energy.dcache < 0.5 * base.energy.dcache

    def test_icache_waypred_saves_energy(self):
        base = Simulator(SystemConfig()).run(get_trace("gcc", N))
        tech = Simulator(SystemConfig().with_icache_policy("waypred")).run(
            get_trace("gcc", N)
        )
        assert tech.energy.icache < base.energy.icache

    def test_two_cycle_dcache_slower(self):
        base = Simulator(SystemConfig()).run(get_trace("gcc", N))
        slow = Simulator(SystemConfig().with_dcache(latency=2)).run(get_trace("gcc", N))
        assert slow.cycles > base.cycles

    def test_cache_fraction_in_band(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        assert 0.05 < result.energy.cache_fraction_of_processor < 0.25


class TestRelativeMetrics:
    def test_identity(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        assert relative_energy_delay(result, result, "dcache") == pytest.approx(1.0)
        assert performance_degradation(result, result) == pytest.approx(0.0)
        assert relative_energy(result, result) == pytest.approx(1.0)

    def test_components(self):
        result = Simulator(SystemConfig()).run(get_trace("gcc", N))
        for component in ("dcache", "icache", "processor"):
            assert relative_energy_delay(result, result, component) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            relative_energy_delay(result, result, "tlb")


class TestRunnerCaching:
    def test_memoizes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_benchmark("li", SystemConfig(), 4000)
        second = run_benchmark("li", SystemConfig(), 4000)
        assert first is second  # in-memory hit

    def test_disk_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_benchmark("li", SystemConfig(), 4000)
        clear_caches()
        second = run_benchmark("li", SystemConfig(), 4000)
        assert first is not second
        assert first.cycles == second.cycles

    def test_disk_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        run_benchmark("li", SystemConfig(), 4000)
        assert not list(tmp_path.glob("*.json"))

    def test_use_cache_false_bypasses(self):
        first = run_benchmark("li", SystemConfig(), 4000, use_cache=False)
        second = run_benchmark("li", SystemConfig(), 4000, use_cache=False)
        assert first is not second
        assert first.cycles == second.cycles

"""CacheStats / CoreStats / SimResult derived-metric tests."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.cache.stats import CacheStats
from repro.cpu.stats import CoreStats
from repro.sim.results import (
    CoreMetrics,
    EnergyMetrics,
    L1Metrics,
    SimResult,
)


class TestCacheStats:
    def test_empty_safe(self):
        stats = CacheStats()
        assert stats.miss_rate == 0.0
        assert stats.prediction_accuracy == 0.0
        assert stats.kind_fraction("parallel") == 0.0

    def test_derived_counts(self):
        stats = CacheStats(loads=10, stores=5, load_hits=8, store_hits=5)
        assert stats.accesses == 15
        assert stats.hits == 13
        assert stats.misses == 2
        assert stats.load_misses == 2
        assert stats.miss_rate == pytest.approx(2 / 15)
        assert stats.load_miss_rate == pytest.approx(0.2)

    def test_kind_counting(self):
        stats = CacheStats()
        stats.count_kind("parallel", 3)
        stats.count_kind("sequential")
        assert stats.kind_fraction("parallel") == pytest.approx(0.75)


class TestCoreStats:
    def test_ipc(self):
        stats = CoreStats(cycles=100, committed=250)
        assert stats.ipc == pytest.approx(2.5)

    def test_branch_accuracy(self):
        stats = CoreStats(branches=100, branch_mispredicts=8)
        assert stats.branch_accuracy == pytest.approx(0.92)

    def test_mem_ops(self):
        stats = CoreStats(loads=10, stores=4)
        assert stats.mem_ops == 14

    def test_zero_safe(self):
        stats = CoreStats()
        assert stats.ipc == 0.0
        assert stats.branch_accuracy == 1.0


def _attribute_loads():
    """Every name read as ``x.name`` somewhere in the package.  An
    augmented assignment (``x.name += 1``) stores, so it is no read."""
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_stats_field_is_read():
    """Each counter is read by a price, a result section, Wattch or the
    interval driver; one that only its own increments touch is dead
    weight on the hot path of both tiers."""
    loads = _attribute_loads()
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in (CacheStats, CoreStats)
        for field in dataclasses.fields(cls)
        if field.name not in loads
    ]
    assert not unread, f"stats fields nothing reads: {unread}"


class TestSimResult:
    def _result(self, **sections):
        defaults = dict(
            benchmark="x",
            config_key="k",
            core=CoreMetrics(instructions=100, cycles=50, committed=100),
        )
        defaults.update(sections)
        return SimResult(**defaults)

    def test_ipc(self):
        result = self._result()
        assert result.core.ipc == pytest.approx(2.0)
        assert result.ipc == pytest.approx(2.0)  # headline convenience
        assert result.cycles == 50

    def test_dcache_rates(self):
        result = self._result(
            dcache=L1Metrics(loads=10, stores=10, misses=4, load_misses=3)
        )
        assert result.dcache.miss_rate == pytest.approx(0.2)
        assert result.dcache.load_miss_rate == pytest.approx(0.3)

    def test_energy_includes_prediction_overhead(self):
        result = self._result(
            energy=EnergyMetrics(
                components={"l1_dcache": 10.0, "prediction_dcache": 0.5,
                            "l1_icache": 8.0, "prediction_icache": 0.25}
            )
        )
        assert result.energy.dcache == pytest.approx(10.5)
        assert result.energy.icache == pytest.approx(8.25)

    def test_processor_energy_sums_components(self):
        result = self._result(
            energy=EnergyMetrics(processor={"clock": 5.0, "alu": 2.0})
        )
        assert result.energy.processor_total == pytest.approx(7.0)

    def test_kind_fractions(self):
        result = self._result(dcache=L1Metrics(kinds={"parallel": 3, "mispredicted": 1}))
        assert result.dcache.kind_fraction("parallel") == pytest.approx(0.75)
        assert result.dcache.kind_fraction("sequential") == 0.0

    def test_prediction_accuracy(self):
        result = self._result(dcache=L1Metrics(predictions=10, correct_predictions=7))
        assert result.dcache.prediction_accuracy == pytest.approx(0.7)

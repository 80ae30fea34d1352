"""Energy-model tests: Table 3 calibration, scaling trends, pricing."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.energy.cactilite import CactiLite
from repro.energy.constants import NANOJOULE_PER_REU
from repro.energy.pricing import l1_energy, l1_events, l2_energy
from repro.energy.processor import WattchLite
from repro.energy.tables import PredictionStructureEnergy, cam_energy, prediction_table_energy


class TestTable3Calibration:
    """The model must reproduce the paper's Table 3 for 16K 4-way 32B."""

    def setup_method(self):
        self.model = CactiLite().energy_model(CacheGeometry(16 * 1024, 4, 32))
        self.parallel = self.model.parallel_read()

    def test_parallel_read_is_reference(self):
        assert self.parallel == pytest.approx(1.0, abs=0.01)

    def test_one_way_read(self):
        assert self.model.one_way_read() / self.parallel == pytest.approx(0.21, abs=0.01)

    def test_store_write(self):
        assert self.model.store_write() / self.parallel == pytest.approx(0.24, abs=0.01)

    def test_tag_array(self):
        assert self.model.tag_all_read / self.parallel == pytest.approx(0.06, abs=0.005)

    def test_prediction_table(self):
        assert prediction_table_energy(1024, 4) == pytest.approx(0.007, abs=0.001)

    def test_extra_probe_cheaper_than_parallel_gap(self):
        # A misprediction reads two ways total: cheaper than parallel
        # for associativity > 2 (paper section 2.1).
        two_probe = self.model.one_way_read() + self.model.extra_probe()
        assert two_probe < self.parallel


class TestScalingTrends:
    """Figure 7/8 energy mechanics."""

    def _ratio(self, size_kb, ways):
        model = CactiLite().energy_model(CacheGeometry(size_kb * 1024, ways, 32))
        return model.one_way_read() / model.parallel_read()

    def test_savings_grow_with_associativity(self):
        # one-way/parallel ratio shrinks as ways grow.
        assert self._ratio(16, 2) > self._ratio(16, 4) > self._ratio(16, 8)

    def test_savings_shrink_slightly_with_size(self):
        # Paper: 32K savings a bit below 16K (tag/decode share grows).
        r16, r32 = self._ratio(16, 4), self._ratio(32, 4)
        assert r32 >= r16
        assert r32 - r16 < 0.1

    def test_absolute_energy_grows_with_size(self):
        e16 = CactiLite().energy_model(CacheGeometry(16 * 1024, 4, 32)).parallel_read()
        e32 = CactiLite().energy_model(CacheGeometry(32 * 1024, 4, 32)).parallel_read()
        assert e32 > e16

    def test_nanojoule_conversion_positive(self):
        assert NANOJOULE_PER_REU > 0


class TestTiming:
    def test_sequential_slowdown_near_paper(self):
        timing = CactiLite().timing_model(CacheGeometry(16 * 1024, 4, 32))
        # Paper: "about 60%" slower; accept 40-80%.
        assert 1.4 < timing.sequential_slowdown < 1.8

    def test_xor_table_lookup_fraction(self):
        ratio = CactiLite().table_vs_cache_time_ratio(1024, 4, CacheGeometry(16 * 1024, 4, 32))
        # Paper: 48% of access time.
        assert 0.35 < ratio < 0.6

    def test_bigger_cache_slower(self):
        t16 = CactiLite().timing_model(CacheGeometry(16 * 1024, 4, 32)).parallel_access_ns
        t32 = CactiLite().timing_model(CacheGeometry(32 * 1024, 4, 32)).parallel_access_ns
        assert t32 > t16


class TestPredictionStructures:
    def test_table_energy_monotone_in_size(self):
        assert prediction_table_energy(2048, 4) > prediction_table_energy(1024, 4)

    def test_cam_more_expensive_than_table(self):
        assert cam_energy(16, 30) > prediction_table_energy(16, 30)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            prediction_table_energy(0, 4)
        with pytest.raises(ValueError):
            cam_energy(16, 0)

    def test_overhead_below_one_percent_of_conventional(self):
        """Paper section 3: prediction energy < 1% of d-cache energy."""
        model = CactiLite().energy_model(CacheGeometry(16 * 1024, 4, 32))
        overhead = PredictionStructureEnergy.build()
        assert overhead.table_access < 0.01 * model.parallel_read()
        assert overhead.victim_list_search < 0.01 * model.parallel_read()


class TestPricing:
    """Event counts priced with Figure 1's per-event energies."""

    def setup_method(self):
        self.model = CactiLite().energy_model(CacheGeometry(16 * 1024, 4, 32))
        self.pred = PredictionStructureEnergy.build()

    def _price(self, **counts):
        return l1_energy(self.model, self.pred, l1_events(CacheStats(**counts)))

    def test_one_event_each(self):
        model, pred = self.model, self.pred
        assert self._price(parallel_reads=1) == (model.parallel_read(), 0.0)
        assert self._price(one_way_reads=1) == (model.one_way_read(), 0.0)
        assert self._price(tag_only_probes=1) == (
            model.addr_route + model.tag_all_read, 0.0)
        assert self._price(second_probes=1) == (model.extra_probe(), 0.0)
        assert self._price(fills=1) == (model.fill_write(), 0.0)
        assert self._price(store_writes=1) == (model.store_write(), 0.0)
        assert self._price(table_accesses=1) == (0.0, pred.table_access)
        assert self._price(victim_searches=1) == (0.0, pred.victim_list_search)
        assert self._price(way_field_accesses=1) == (0.0, pred.way_field_access)

    def test_counters_outside_the_schedule_cost_nothing(self):
        assert self._price(loads=9, stores=4, load_hits=7, store_hits=3, predictions=5,
                           correct_predictions=4) == (0.0, 0.0)

    def test_l2_prices_accesses_one_way_and_fills(self):
        stats = CacheStats(loads=10, stores=2, fills=3)
        assert l2_energy(self.model, stats) == (
            12 * self.model.one_way_read() + 3 * self.model.fill_write())


class TestWattchLite:
    def test_report_components_positive(self):
        report = WattchLite().report(
            cycles=1000, fetched_instrs=2000, fetch_cycles=900,
            dispatched_instrs=2000, issued_instrs=1900, int_ops=1200,
            fp_ops=100, mem_ops=600, committed_instrs=1900,
            cache_energies={"l1_icache": 900.0, "l1_dcache": 700.0, "l2": 50.0},
        )
        assert report.total > 0
        assert all(v >= 0 for v in report.components.values())
        # Prediction energy lives inside the L1 components.
        assert "prediction" not in report.components

    def test_cache_fraction_definition(self):
        report = WattchLite().report(
            cycles=100, fetched_instrs=0, fetch_cycles=0, dispatched_instrs=0,
            issued_instrs=0, int_ops=0, fp_ops=0, mem_ops=0, committed_instrs=0,
            cache_energies={"l1_icache": 50.0, "l1_dcache": 60.0},
        )
        expected = 110.0 / report.total
        assert report.cache_fraction == pytest.approx(expected)

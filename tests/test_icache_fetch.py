"""I-cache way prediction and fetch-unit tests (section 2.3)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache
from repro.core.icache import (
    ICacheEngine,
    SOURCE_BTB,
    SOURCE_NONE,
    SOURCE_RAS,
    SOURCE_SAWP,
)
from repro.core.icache_policy import (
    IFetchWayPredictor,
    ParallelFetchPolicy,
    WayPredictedFetchPolicy,
)
from repro.core.kinds import (
    KIND_BTB_CORRECT,
    KIND_MISPREDICTED,
    KIND_NO_PREDICTION,
    KIND_PARALLEL,
    KIND_SAWP_CORRECT,
)
from repro.cpu.config import CoreConfig
from repro.cpu.fetch import FetchUnit
from repro.cpu.stats import CoreStats
from repro.workload.generator import generate_trace

from tests.test_policies import model_of, priced


def make_icache(way_predict=True, geometry=None):
    geometry = geometry or CacheGeometry(1024, 4, 32)
    policy = WayPredictedFetchPolicy() if way_predict else ParallelFetchPolicy()
    return ICacheEngine(
        geometry=geometry,
        l2=L2Cache(CacheGeometry(64 * 1024, 8, 32)),
        policy=policy,
    )


class TestICacheEngine:
    def test_parallel_baseline_kind(self):
        icache = make_icache(way_predict=False)
        icache.fetch(0x400, None, SOURCE_NONE)
        assert icache.stats.access_kinds[KIND_PARALLEL] == 1

    def test_no_prediction_defaults_to_parallel_energy(self):
        icache = make_icache()
        icache.fetch(0x400, None, SOURCE_NONE)
        before = priced(icache)[0]
        icache.fetch(0x400, None, SOURCE_NONE)
        # Second access: hit with parallel energy.
        assert icache.stats.access_kinds[KIND_NO_PREDICTION] == 2
        assert priced(icache)[0] - before == pytest.approx(model_of(icache).parallel_read())

    def test_correct_prediction_single_way(self):
        icache = make_icache()
        outcome = icache.fetch(0x400, None, SOURCE_NONE)  # miss, fills
        before = priced(icache)[0]
        hit = icache.fetch(0x400, outcome.way, SOURCE_SAWP)
        assert hit.latency == 1
        assert hit.kind == KIND_SAWP_CORRECT
        assert priced(icache)[0] - before == pytest.approx(
            model_of(icache).one_way_read()
        )

    def test_btb_and_ras_grouped(self):
        icache = make_icache()
        outcome = icache.fetch(0x400, None, SOURCE_NONE)
        assert icache.fetch(0x400, outcome.way, SOURCE_BTB).kind == KIND_BTB_CORRECT
        assert icache.fetch(0x400, outcome.way, SOURCE_RAS).kind == KIND_BTB_CORRECT

    def test_mispredict_second_probe(self):
        icache = make_icache()
        outcome = icache.fetch(0x400, None, SOURCE_NONE)
        wrong = (outcome.way + 1) % 4
        bad = icache.fetch(0x400, wrong, SOURCE_SAWP)
        assert bad.kind == KIND_MISPREDICTED
        assert bad.latency == 2
        assert icache.stats.second_probes == 1

    def test_way_of_is_quiet(self):
        icache = make_icache()
        icache.fetch(0x400, None, SOURCE_NONE)
        before = priced(icache)
        assert icache.way_of(0x400) is not None
        assert priced(icache) == before


class TestIFetchWayPredictor:
    def test_cold_sawp_no_prediction(self):
        predictor = IFetchWayPredictor()
        assert predictor.predict_sequential(0x400) is None

    def test_train_then_predict(self):
        predictor = IFetchWayPredictor()
        predictor.train_sequential(0x400, 2)
        assert predictor.predict_sequential(0x400) == 2


class TestFetchUnit:
    def _run_fetch(self, way_predict=True, n=4000, bench="gcc"):
        trace = generate_trace(bench, n)
        icache = make_icache(
            way_predict=way_predict, geometry=CacheGeometry(16 * 1024, 4, 32)
        )
        stats = CoreStats()
        unit = FetchUnit(trace, icache, CoreConfig(), stats)
        cycle = 0
        fetched = 0
        while not unit.done and cycle < 100_000:
            group = unit.fetch(cycle)
            fetched += len(group)
            for item in group:
                if item.resolves_stall:
                    unit.resume(cycle + 6)
            cycle += 1
        return trace, icache, stats, fetched

    def test_fetches_whole_trace(self):
        trace, _, stats, fetched = self._run_fetch()
        assert fetched == len(trace)
        assert stats.fetched == len(trace)

    def test_branch_prediction_trains(self):
        _, _, stats, _ = self._run_fetch()
        assert stats.branches > 0
        assert stats.branch_mispredicts < stats.branches

    def test_way_prediction_covers_most_fetches(self):
        _, icache, _, _ = self._run_fetch()
        kinds = icache.stats.access_kinds
        predicted = kinds.get(KIND_SAWP_CORRECT, 0) + kinds.get(KIND_BTB_CORRECT, 0)
        total = sum(kinds.values())
        assert predicted / total > 0.6

    def test_parallel_mode_never_predicts(self):
        _, icache, _, _ = self._run_fetch(way_predict=False)
        assert icache.stats.predictions == 0
        assert set(icache.stats.access_kinds) == {KIND_PARALLEL}

    def test_sawp_dominates_for_fp_code(self):
        """Long basic blocks (fp profile) lean on the SAWP (Figure 10)."""
        _, icache, _, _ = self._run_fetch(bench="mgrid")
        kinds = icache.stats.access_kinds
        total = sum(kinds.values())
        assert kinds.get(KIND_SAWP_CORRECT, 0) / total > 0.5

    def test_icache_energy_lower_with_prediction(self):
        _, icache_wp, _, _ = self._run_fetch(way_predict=True)
        _, icache_par, _, _ = self._run_fetch(way_predict=False)
        assert priced(icache_wp)[0] < priced(icache_par)[0]

"""Access-policy and engine tests: the paper's core mechanics."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache
from repro.core.engine import DCacheEngine
from repro.core.factory import build_dcache_policy
from repro.core.kinds import (
    KIND_MISPREDICTED,
    KIND_PARALLEL,
    KIND_SEQUENTIAL,
    KIND_WAY_PREDICTED,
)
from repro.core.spec import PolicySpec
from repro.energy.cactilite import CactiLite
from repro.energy.pricing import l1_energy, l1_events
from repro.energy.tables import PredictionStructureEnergy


def make_engine(kind="parallel", geometry=None, latency=1, **spec_kwargs):
    """Build a DCacheEngine over a small L2 for direct testing."""
    geometry = geometry or CacheGeometry(1024, 4, 32)  # 8 sets
    engine = DCacheEngine(
        geometry=geometry,
        policy=build_dcache_policy(PolicySpec.create(kind, side="dcache", **spec_kwargs)),
        l2=L2Cache(CacheGeometry(64 * 1024, 8, 32), latency=12),
        base_latency=latency,
    )
    return engine


def model_of(engine):
    """The per-event energies of ``engine``'s geometry."""
    return CactiLite().energy_model(engine.geometry)


def priced(engine):
    """The (cache, prediction) energy of ``engine``'s events so far,
    with the paper's prediction structures."""
    return l1_energy(model_of(engine), PredictionStructureEnergy.build(),
                     l1_events(engine.stats))


class TestSpecs:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PolicySpec.create("magic", side="dcache")
        with pytest.raises(ValueError):
            PolicySpec.create("magic", side="icache")

    def test_labels(self):
        assert PolicySpec.create("seldm_waypred", side="dcache").label == "Sel-DM + Way-pred"

    @pytest.mark.parametrize(
        "kind",
        ["parallel", "sequential", "waypred_pc", "waypred_xor", "oracle",
         "seldm_parallel", "seldm_waypred", "seldm_sequential"],
    )
    def test_factory_builds_all(self, kind):
        policy = build_dcache_policy(PolicySpec.create(kind, side="dcache"))
        assert policy is not None


class TestParallelEngine:
    def test_hit_latency_and_energy(self):
        engine = make_engine("parallel")
        engine.load(0x40, 0x100)  # cold miss fills
        before = priced(engine)[0]
        outcome = engine.load(0x40, 0x100)
        assert outcome.hit
        assert outcome.latency == 1
        spent = priced(engine)[0] - before
        assert spent == pytest.approx(model_of(engine).parallel_read())

    def test_miss_latency_includes_l2(self):
        engine = make_engine("parallel")
        outcome = engine.load(0x40, 0x100)
        assert not outcome.hit
        assert outcome.latency >= 1 + 12

    def test_kind_counted(self):
        engine = make_engine("parallel")
        engine.load(0x40, 0x100)
        assert engine.stats.access_kinds[KIND_PARALLEL] == 1

    def test_data_way_reads_equal_associativity(self):
        engine = make_engine("parallel")
        engine.load(0x40, 0x100)
        stats = engine.stats
        assert (stats.parallel_reads, stats.one_way_reads, stats.tag_only_probes) == (1, 0, 0)
        # A parallel read is priced as reading every data way.
        model = model_of(engine)
        assert model.parallel_read() == pytest.approx(
            model.addr_route + model.tag_all_read + 4 * model.data_way_read
            + model.output_parallel
        )


class TestSequentialEngine:
    def test_hit_pays_extra_cycle_one_way_energy(self):
        engine = make_engine("sequential")
        engine.load(0x40, 0x100)
        before = priced(engine)[0]
        outcome = engine.load(0x40, 0x100)
        assert outcome.hit
        assert outcome.latency == 2
        assert priced(engine)[0] - before == pytest.approx(
            model_of(engine).one_way_read()
        )
        assert outcome.kind == KIND_SEQUENTIAL

    def test_miss_reads_no_data_way(self):
        engine = make_engine("sequential")
        engine.load(0x40, 0x100)
        stats = engine.stats
        # A fill happens, but no data-way read on the sequential miss.
        assert (stats.parallel_reads, stats.one_way_reads, stats.tag_only_probes) == (0, 0, 1)
        assert stats.fills == 1


class TestOracleEngine:
    def test_always_correct_one_way(self):
        engine = make_engine("oracle")
        engine.load(0x40, 0x100)
        for _ in range(5):
            outcome = engine.load(0x40, 0x100)
            assert outcome.latency == 1
        assert engine.stats.prediction_accuracy == 1.0
        assert engine.stats.second_probes == 0


class TestWayPredictionEngine:
    def test_cold_table_falls_back_to_parallel(self):
        engine = make_engine("waypred_pc")
        engine.load(0x40, 0x100)  # miss; trains table
        # A different pc, untrained: parallel access.
        engine.load(0x80, 0x100)
        assert engine.stats.access_kinds.get(KIND_PARALLEL, 0) >= 1

    def test_trained_hit_is_one_way(self):
        engine = make_engine("waypred_pc")
        engine.load(0x40, 0x100)  # train
        before = priced(engine)[0]
        outcome = engine.load(0x40, 0x100)
        assert outcome.hit and outcome.latency == 1
        assert outcome.kind == KIND_WAY_PREDICTED
        assert priced(engine)[0] - before == pytest.approx(
            model_of(engine).one_way_read()
        )

    def test_misprediction_second_probe(self):
        engine = make_engine("waypred_pc")
        set_stride = 8 * 32  # 8 sets
        engine.load(0x40, 0x100)          # block A -> trains way of A
        engine.load(0x40, 0x100 + set_stride)  # same set, different block
        # Third access: pc 0x40 trained on the second block's way; hit
        # block A again - prediction may mismatch.
        engine.load(0x40, 0x100)
        assert engine.stats.second_probes >= 1
        assert engine.stats.access_kinds.get(KIND_MISPREDICTED, 0) >= 1

    def test_mispredict_latency_penalty(self):
        engine = make_engine("waypred_pc")
        set_stride = 8 * 32
        engine.load(0x40, 0x100)
        engine.load(0x40, 0x100 + set_stride)
        outcome = engine.load(0x40, 0x100)
        if outcome.kind == KIND_MISPREDICTED:
            assert outcome.latency == 2

    def test_xor_uses_handle(self):
        engine = make_engine("waypred_xor")
        # Same handle trains; same handle predicts.
        engine.load(0x40, 0x100, xor_handle=99)
        outcome = engine.load(0x80, 0x100, xor_handle=99)
        assert outcome.kind in (KIND_WAY_PREDICTED, KIND_MISPREDICTED)


class TestStores:
    def test_store_never_predicts(self):
        for kind in ("parallel", "sequential", "waypred_pc", "seldm_waypred"):
            engine = make_engine(kind)
            engine.load(0x40, 0x100)
            before_pred = engine.stats.predictions
            engine.store(0x44, 0x100)
            assert engine.stats.predictions == before_pred

    def test_store_energy_identical_across_policies(self):
        energies = []
        for kind in ("parallel", "sequential", "waypred_pc"):
            engine = make_engine(kind)
            engine.load(0x40, 0x100)
            before = priced(engine)[0]
            engine.store(0x44, 0x100)
            energies.append(priced(engine)[0] - before)
        assert energies[0] == pytest.approx(energies[1])
        assert energies[0] == pytest.approx(energies[2])

    def test_store_miss_write_allocates(self):
        engine = make_engine("parallel")
        outcome = engine.store(0x44, 0x100)
        assert not outcome.hit
        assert engine.array.probe(0x100) is not None

    def test_dirty_eviction_writes_back(self):
        engine = make_engine("parallel", geometry=CacheGeometry(256, 2, 32))
        set_stride = 4 * 32
        engine.store(0x44, 0x0)
        engine.load(0x40, set_stride)
        stores = engine.l2.stats.stores
        engine.load(0x40, 2 * set_stride)  # evicts the dirty block
        assert engine.l2.stats.stores == stores + 1
        engine.load(0x40, 3 * set_stride)  # evicts a clean block
        assert engine.l2.stats.stores == stores + 1

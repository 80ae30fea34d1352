"""Selective direct-mapping mechanics: victim list, mapping counters,
placement, and the engine-level behaviour of section 2.2.2."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.kinds import KIND_DIRECT_MAPPED, KIND_MISPREDICTED
from repro.core.selective_dm import SelectiveDmPolicy, VictimList
from repro.core.policy import MODE_PARALLEL, MODE_SEQUENTIAL, MODE_SINGLE

from tests.test_policies import make_engine, priced


class TestVictimList:
    def test_below_threshold_not_conflicting(self):
        victims = VictimList(16, conflict_threshold=2)
        victims.record_eviction(0x10)
        victims.record_eviction(0x10)
        assert not victims.is_conflicting(0x10)  # count == 2, needs > 2

    def test_exceeding_threshold_flags(self):
        victims = VictimList(16, conflict_threshold=2)
        for _ in range(3):
            victims.record_eviction(0x10)
        assert victims.is_conflicting(0x10)

    def test_lru_replacement_of_entries(self):
        # Threshold 0: an entry conflicts exactly while it is listed.
        victims = VictimList(2, conflict_threshold=0)
        victims.record_eviction(1)
        victims.record_eviction(2)
        victims.record_eviction(3)  # evicts entry 1
        assert [victims.is_conflicting(b) for b in (1, 2, 3)] == [False, True, True]

    def test_increment_refreshes_recency(self):
        # Threshold 1: only an entry counted twice conflicts.
        victims = VictimList(2, conflict_threshold=1)
        victims.record_eviction(1)
        victims.record_eviction(2)
        victims.record_eviction(1)  # refresh 1
        victims.record_eviction(3)  # evicts 2, not 1
        assert victims.is_conflicting(1)
        assert not victims.is_conflicting(2)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            VictimList(0)


class TestMappingPrediction:
    def setup_method(self):
        self.policy = SelectiveDmPolicy(conflict_handler="parallel")
        self.fields = CacheGeometry(16 * 1024, 4, 32).fields

    def test_default_is_direct_mapped(self):
        plan = self.policy.plan_load(0x40, 0x1000, 0)
        assert plan.mode == MODE_SINGLE
        assert plan.kind == KIND_DIRECT_MAPPED

    def test_sa_hits_flip_counter(self):
        addr = 0x1000
        dm_way = self.fields.direct_mapped_way(addr)
        other_way = (dm_way + 1) % 4
        plan = self.policy.plan_load(0x40, addr, 0)
        # Two hits found in a set-associative way flip the 2-bit counter.
        for _ in range(2):
            self.policy.observe_load(0x40, addr, 0, plan, other_way, other_way, dm_way)
        plan = self.policy.plan_load(0x40, addr, 0)
        assert plan.mode == MODE_PARALLEL

    def test_dm_hits_flip_back(self):
        addr = 0x1000
        dm_way = self.fields.direct_mapped_way(addr)
        other = (dm_way + 1) % 4
        plan = self.policy.plan_load(0x40, addr, 0)
        for _ in range(2):
            self.policy.observe_load(0x40, addr, 0, plan, other, other, dm_way)
        for _ in range(2):
            self.policy.observe_load(0x40, addr, 0, plan, dm_way, dm_way, dm_way)
        assert self.policy.plan_load(0x40, addr, 0).mode == MODE_SINGLE

    def test_handlers(self):
        sequential = SelectiveDmPolicy(conflict_handler="sequential")
        handle = 0x40 >> 2
        sequential.mapping_table.increment(handle)
        sequential.mapping_table.increment(handle)
        assert sequential.plan_load(0x40, 0x1000, 0).mode == MODE_SEQUENTIAL

    def test_waypred_handler_uses_way_table(self):
        policy = SelectiveDmPolicy(conflict_handler="waypred")
        handle = 0x40 >> 2
        policy.mapping_table.increment(handle)
        policy.mapping_table.increment(handle)
        # Cold way table: parallel fallback.
        assert policy.plan_load(0x40, 0x1000, 0).mode == MODE_PARALLEL
        policy.way_table.train(handle, 2)
        plan = policy.plan_load(0x40, 0x1000, 0)
        assert plan.mode == MODE_SINGLE and plan.way == 2

    def test_rejects_unknown_handler(self):
        with pytest.raises(ValueError):
            SelectiveDmPolicy(conflict_handler="magic")


class TestPlacement:
    def test_non_conflicting_placed_in_dm_way(self):
        policy = SelectiveDmPolicy()
        fields = CacheGeometry(16 * 1024, 4, 32).fields
        addr = 0xABC123
        assert policy.placement_way(addr, fields) == fields.direct_mapped_way(addr)

    def test_conflicting_placed_set_associatively(self):
        policy = SelectiveDmPolicy()
        fields = CacheGeometry(16 * 1024, 4, 32).fields
        block = 0xABC123 >> 5
        for _ in range(3):
            policy.on_eviction(block)
        assert policy.placement_way(0xABC123, fields) is None


class TestSelectiveDmEngine:
    def test_dm_probe_hit(self):
        engine = make_engine("seldm_parallel")
        engine.load(0x40, 0x100)
        outcome = engine.load(0x40, 0x100)
        assert outcome.hit and outcome.latency == 1
        assert outcome.kind == KIND_DIRECT_MAPPED

    def test_dm_block_lands_in_dm_way(self):
        engine = make_engine("seldm_parallel")
        addr = 0x1400
        engine.load(0x40, addr)
        assert engine.array.probe(addr) == engine.fields.direct_mapped_way(addr)

    def test_conflict_thrash_detected_and_resolved(self):
        """Two hot blocks sharing a DM position must end up coexisting
        set-associatively after the victim list flags them."""
        engine = make_engine("seldm_parallel")
        fields = engine.fields
        # Two addresses: same index, same DM way, different tags.
        a = 0x100
        n_sets = engine.geometry.num_sets
        b = a + n_sets * 32 * engine.geometry.associativity  # same dm position
        assert fields.direct_mapped_way(a) == fields.direct_mapped_way(b)
        assert fields.index(a) == fields.index(b)
        for _ in range(40):
            engine.load(0x40, a)
            engine.load(0x44, b)
        # Steady state: both resident simultaneously.
        assert engine.array.probe(a) is not None
        assert engine.array.probe(b) is not None

    def test_mispredicted_as_dm_counts(self):
        engine = make_engine("seldm_parallel")
        a = 0x100
        b = a + engine.geometry.num_sets * 32 * engine.geometry.associativity
        for _ in range(40):
            engine.load(0x40, a)
            engine.load(0x44, b)
        assert engine.stats.access_kinds.get(KIND_MISPREDICTED, 0) >= 1

    def test_victim_energy_charged(self):
        engine = make_engine("seldm_waypred")
        engine.load(0x40, 0x100)
        assert engine.stats.victim_searches == 1
        assert priced(engine)[1] > 0

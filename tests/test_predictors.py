"""Branch predictors, BTB, RAS, and prediction-table tests."""

import pytest
from hypothesis import given, strategies as st

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.gshare import GsharePredictor
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.table import CounterTable, WayPredictionTable


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor(64)
        for _ in range(10):
            p.train(0x400, True)
        assert p.predict(0x400)
        for _ in range(10):
            p.train(0x400, False)
        assert not p.predict(0x400)

    def test_distinct_pcs_independent(self):
        p = BimodalPredictor(64)
        for _ in range(10):
            p.train(0x400, True)
            p.train(0x404, False)
        assert p.predict(0x400)
        assert not p.predict(0x404)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BimodalPredictor(100)


class TestGshare:
    def test_learns_alternating_pattern(self):
        """Bimodal cannot learn T,N,T,N...; gshare can via history."""
        g = GsharePredictor(1024, 8)
        outcomes = [bool(i % 2) for i in range(400)]
        correct = 0
        for outcome in outcomes:
            if g.predict(0x500) == outcome:
                correct += 1
            g.train(0x500, outcome)
        # After warmup the pattern is fully predictable.
        assert correct > 300

    def test_history_shifts(self):
        g = GsharePredictor(256, 4)
        g.update_history(True)
        g.update_history(False)
        assert g.history == 0b10


class TestHybrid:
    def test_beats_components_on_mixed_workload(self):
        """Biased branches suit bimodal; patterned ones suit gshare; the
        hybrid should handle both at once."""
        h = HybridPredictor(256, 1024, 8, 256)
        correct = 0
        total = 2000
        for i in range(total):
            # pc A: strongly biased taken; pc B: period-2 pattern.
            for pc, outcome in ((0x100, True), (0x200, bool(i % 2))):
                if h.predict(pc) == outcome:
                    correct += 1
                h.train(pc, outcome)
        assert correct / (2 * total) > 0.9


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(64)
        assert btb.lookup(0x400) is None
        btb.update(0x400, 0x900, way=2)
        entry = btb.lookup(0x400)
        assert entry is not None
        assert entry.target == 0x900
        assert entry.way == 2

    def test_tag_conflict_evicts(self):
        btb = BranchTargetBuffer(16)
        btb.update(0x400, 0x900)
        conflicting = 0x400 + 16 * 4  # same index, different tag
        btb.update(conflicting, 0xA00)
        assert btb.lookup(0x400) is None
        assert btb.lookup(conflicting).target == 0xA00

    def test_update_way_requires_match(self):
        btb = BranchTargetBuffer(16)
        btb.update(0x400, 0x900)
        btb.update_way(0x400, 3)
        assert btb.lookup(0x400).way == 3
        btb.update_way(0x404, 1)  # different pc: no entry, no crash
        assert btb.lookup(0x404) is None


class TestRas:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100, 1)
        ras.push(0x200, 2)
        assert ras.pop() == (0x200, 2)
        assert ras.pop() == (0x100, 1)

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(4)
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1, None)
        ras.push(2, None)
        ras.push(3, None)
        assert ras.pop()[0] == 3
        assert ras.pop()[0] == 2
        assert ras.pop() is None

    def test_update_top_way(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100, None)
        ras.update_top_way(2)
        assert ras.pop() == (0x100, 2)

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=40))
    def test_len_bounded_by_depth(self, pushes):
        ras = ReturnAddressStack(8)
        for value in pushes:
            ras.push(value)
        assert len(ras) <= 8


class TestWayPredictionTable:
    def test_cold_entry_returns_none(self):
        table = WayPredictionTable(64)
        assert table.predict(10) is None

    def test_train_then_predict(self):
        table = WayPredictionTable(64)
        assert table.train(10, 3)
        assert table.predict(10) == 3

    def test_retrain_same_way_is_free(self):
        """Unchanged entries are not physical writes (energy model)."""
        table = WayPredictionTable(64)
        assert table.train(10, 3)
        assert not table.train(10, 3)

    def test_aliasing(self):
        """Untagged table: handles that collide share an entry (the
        reason bigger tables don't help PC prediction, section 4.2)."""
        table = WayPredictionTable(64)
        table.train(1, 2)
        assert table.predict(1 + 64) == 2


class TestCounterTable:
    def test_msb_thresholds(self):
        table = CounterTable(64, bits=2, initial=0)
        assert not table.msb_set(5)
        table.increment(5)
        assert not table.msb_set(5)  # value 1: still DM
        table.increment(5)
        assert table.msb_set(5)  # value 2: SA

    def test_saturation_writes_are_free(self):
        table = CounterTable(64, bits=2, initial=0)
        assert not table.decrement(5)  # already 0
        assert table.increment(5)
        assert table.increment(5)
        assert table.increment(5)
        assert not table.increment(5)  # saturated at 3
        assert table.read(5) == 3

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            CounterTable(100)
        with pytest.raises(ValueError):
            CounterTable(64, bits=0)
        with pytest.raises(ValueError):
            CounterTable(64, bits=2, initial=9)

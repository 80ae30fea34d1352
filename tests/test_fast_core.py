"""Unit tests for the fast core layer: table-state predictors, the
instruction-stream encoding, the deadlock valve, and the core/fetch
wiring.

The cycle-exactness of the whole pipeline is pinned by the differential
suite (``test_differential.py``) and the golden experiments; this module
pins the building blocks in isolation — in particular that every fast
predictor transitions bit-for-bit like its reference counterpart under
randomized event streams, including the aliasing corners (BTB tag
conflicts, RAS overflow/underflow, chooser ties).
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import L2Cache
from repro.cpu.config import CoreConfig
from repro.cpu.ooo import _DEADLOCK_FLOOR, deadlock_limit
from repro.fastsim import FastCore, FastFetchUnit
from repro.fastsim.predictors import (
    FastBranchTargetBuffer,
    FastHybridPredictor,
    FastReturnAddressStack,
)
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.ras import ReturnAddressStack
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.simulator import Simulator
from repro.utils.rng import DeterministicRng
from repro.workload.encode import encode_trace
from repro.workload.generator import generate_trace

SMALL = SystemConfig(
    icache=CacheLevelConfig(1, 4, 32, 1),
    dcache=CacheLevelConfig(1, 4, 32, 1),
    l2=CacheLevelConfig(4, 4, 32, 6),
)


# ------------------------------------------------------------------ #
# Predictors: bit-for-bit equivalence under random streams
# ------------------------------------------------------------------ #


def _pc_stream(name: str, count: int = 4_000, pcs: int = 97):
    rng = DeterministicRng(name)
    return [
        (0x1000 + 4 * rng.randint(0, pcs), rng.randint(0, 1) == 1)
        for _ in range(count)
    ]


def test_hybrid_predictor_matches_reference():
    reference = HybridPredictor(
        bimodal_entries=64, gshare_entries=128, history_bits=6, chooser_entries=32
    )
    fast = FastHybridPredictor(
        bimodal_entries=64, gshare_entries=128, history_bits=6, chooser_entries=32
    )
    for pc, taken in _pc_stream("hybrid-equiv"):
        expected = reference.predict(pc)
        reference.train(pc, taken)
        assert fast.predict_train(pc, taken) == expected
    assert fast.history == reference.gshare.history


def test_hybrid_predictor_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        FastHybridPredictor(bimodal_entries=3)
    with pytest.raises(ValueError, match="power of two"):
        FastHybridPredictor(gshare_entries=100)
    with pytest.raises(ValueError, match="power of two"):
        FastHybridPredictor(chooser_entries=7)


def test_btb_matches_reference_including_tag_conflicts():
    reference = BranchTargetBuffer(entries=16)  # tiny: constant aliasing
    fast = FastBranchTargetBuffer(entries=16)
    rng = DeterministicRng("btb-equiv")
    for _ in range(4_000):
        pc = 0x1000 + 4 * rng.randint(0, 300)
        action = rng.randint(0, 3)
        if action == 0:
            entry = reference.lookup(pc)
            hit = fast.lookup(pc)
            if entry is None:
                assert hit is None
            else:
                assert hit is not None
                assert hit[0] == entry.target
                assert hit[1] == (-1 if entry.way is None else entry.way)
        elif action == 1:
            target = 0x2000 + 4 * rng.randint(0, 500)
            reference.update(pc, target)
            fast.update(pc, target)
        else:
            way = rng.randint(0, 3)
            reference.update_way(pc, way)
            fast.update_way(pc, way)


def test_btb_tag_conflict_drops_trained_way():
    """A conflicting install replaces the whole entry, way included."""
    fast = FastBranchTargetBuffer(entries=4)
    fast.update(0x1000, 0x2000)
    fast.update_way(0x1000, 3)
    assert fast.lookup(0x1000) == (0x2000, 3)
    fast.update(0x1000 + 4 * 4, 0x3000)  # same index, different tag
    assert fast.lookup(0x1000) is None
    assert fast.lookup(0x1000 + 4 * 4) == (0x3000, -1)


def test_btb_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        FastBranchTargetBuffer(entries=12)


def test_ras_matches_reference_with_overflow_and_underflow():
    reference = ReturnAddressStack(depth=4)
    fast = FastReturnAddressStack(depth=4)
    rng = DeterministicRng("ras-equiv")
    for _ in range(2_000):
        if rng.randint(0, 2):  # push-biased so overflow happens often
            addr = 0x4000 + 4 * rng.randint(0, 200)
            way = rng.randint(0, 4) - 1  # -1 sometimes: "no way"
            reference.push(addr, None if way < 0 else way)
            fast.push(addr, way)
        else:
            expected = reference.pop()
            popped = fast.pop()
            if expected is None:
                assert popped is None
            else:
                assert popped is not None
                assert popped[0] == expected[0]
                assert popped[1] == (-1 if expected[1] is None else expected[1])
        assert len(fast) == len(reference)


def test_ras_rejects_degenerate_depth():
    with pytest.raises(ValueError, match=">= 1"):
        FastReturnAddressStack(depth=0)


# ------------------------------------------------------------------ #
# Instruction-stream encoding
# ------------------------------------------------------------------ #


def test_instr_arrays_match_trace():
    trace = generate_trace("gcc", 3_000, 0)
    encoded = encode_trace(trace)
    encoded.ensure_instr_arrays(trace)
    instrs = trace.instructions
    assert encoded.ops == [i.op for i in instrs]
    assert encoded.pcs == [i.pc for i in instrs]
    assert encoded.dsts == [i.dst for i in instrs]
    assert encoded.src1s == [i.src1 for i in instrs]
    assert encoded.src2s == [i.src2 for i in instrs]
    assert encoded.daddrs == [i.addr for i in instrs]
    assert encoded.takens == [i.taken for i in instrs]
    assert encoded.targets == [i.target for i in instrs]
    assert encoded.xors == [i.xor_handle for i in instrs]


def test_instr_arrays_are_idempotent_and_iblocks_memoized():
    trace = generate_trace("swim", 2_000, 0)
    encoded = encode_trace(trace)
    encoded.ensure_instr_arrays(trace)
    ops = encoded.ops
    encoded.ensure_instr_arrays(trace)
    assert encoded.ops is ops
    blocks = encoded.iblocks(5)
    assert encoded.iblocks(5) is blocks
    assert blocks == [pc >> 5 for pc in encoded.pcs]
    assert encoded.iblocks(6) == [pc >> 6 for pc in encoded.pcs]


def test_iblocks_requires_instr_arrays():
    trace = generate_trace("swim", 500, 0)
    encoded = encode_trace(trace)
    if encoded.pcs is not None:
        pytest.skip("trace memo already carries instruction arrays")
    with pytest.raises(RuntimeError, match="ensure_instr_arrays"):
        encoded.iblocks(5)


# ------------------------------------------------------------------ #
# Deadlock valve
# ------------------------------------------------------------------ #


def test_deadlock_limit_scales_with_trace_length():
    assert deadlock_limit(0) == _DEADLOCK_FLOOR
    assert deadlock_limit(60_000) > deadlock_limit(6_000) > _DEADLOCK_FLOOR
    # Ten million instructions must not be treated as a deadlock just
    # for being long (the old fixed valve could, in principle).
    assert deadlock_limit(10_000_000) >= 8 * 10_000_000


def test_fast_core_raises_on_genuine_deadlock(monkeypatch):
    """A scheduler bug (a ROB head that never completes) still fails
    loudly in the fast core, valve scaling notwithstanding."""
    import repro.fastsim.core as fast_core_module

    monkeypatch.setattr(fast_core_module, "deadlock_limit", lambda n: 50)
    trace = generate_trace("gcc", 300, 0)
    simulator = Simulator(SMALL, backend="fast")

    class NeverCompletes:
        """D-cache stub whose loads complete in the unreachable future."""

        def __init__(self, inner):
            self.inner = inner

        def load_tuple(self, pc, addr, xor_handle=0):
            hit, _latency, kind, way = self.inner.load_tuple(pc, addr, xor_handle)
            return hit, 1 << 33, kind, way

        def store_tuple(self, pc, addr):
            return self.inner.store_tuple(pc, addr)

    from repro.cpu.stats import CoreStats

    stats = CoreStats()
    fetch_unit = FastFetchUnit(trace, simulator.icache, SMALL.core, stats)
    core = FastCore(SMALL.core, fetch_unit, NeverCompletes(simulator.dcache), stats)
    with pytest.raises(RuntimeError, match="core deadlock"):
        core.run()


# ------------------------------------------------------------------ #
# Wiring
# ------------------------------------------------------------------ #


def test_fast_core_drives_plugin_icache_policy():
    """A plugin i-cache policy runs on the fast i-cache engine, which
    takes the built policy object; the fast fetch unit must stay
    byte-identical to the reference pipeline."""
    from repro.core.icache_policy import ICachePolicy, IFetchWayPredictor
    from repro.core.registry import register_policy, unregister_policy
    from repro.fastsim import FastICacheEngine

    @register_policy("plugin_fetch", side="icache", label="Plugin fetch")
    class PluginFetchPolicy(ICachePolicy):
        way_predict = True

        def make_predictor(self):
            return IFetchWayPredictor(64)

    try:
        config = SMALL.with_icache_policy("plugin_fetch")
        simulator = Simulator(config, backend="fast")
        assert isinstance(simulator.icache, FastICacheEngine)
        trace = generate_trace("gcc", 2_000, 0)
        reference = Simulator(config, backend="reference").run(trace).to_flat()
        fast = simulator.run(trace).to_flat()
        assert reference == fast
        assert fast["icache_kinds"].get("sawp_correct")  # the plugin's SAWP predicted
    finally:
        unregister_policy("plugin_fetch", side="icache")


def test_fast_backend_selects_fast_core_path():
    """backend='fast' must not instantiate the reference pipeline, and
    the reference tier keeps the object-graph L2 as the oracle."""
    import repro.sim.simulator as simulator_module

    trace = generate_trace("gcc", 1_500, 0)
    result = {}

    class Exploding(simulator_module.OutOfOrderCore):
        def __init__(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("reference core built under backend='fast'")

    original = simulator_module.OutOfOrderCore
    simulator_module.OutOfOrderCore = Exploding
    try:
        result["fast"] = Simulator(SMALL, backend="fast").run(trace)
    finally:
        simulator_module.OutOfOrderCore = original
    reference = Simulator(SMALL, backend="reference")
    assert isinstance(reference.l2, L2Cache)
    result["reference"] = reference.run(trace)
    assert result["fast"].to_flat() == result["reference"].to_flat()


def test_fast_core_defaults_stats():
    trace = generate_trace("gcc", 1_000, 0)
    simulator = Simulator(SMALL, backend="fast")
    from repro.cpu.stats import CoreStats

    fetch_unit = FastFetchUnit(trace, simulator.icache, CoreConfig(), CoreStats())
    core = FastCore(CoreConfig(), fetch_unit, simulator.dcache)
    assert isinstance(core.stats, CoreStats)
    assert not fetch_unit.done
    core.run()
    assert fetch_unit.done

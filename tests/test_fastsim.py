"""Fast-backend unit and golden-trace equivalence tests.

The differential suite (``test_differential.py``) explores random
traces; this module pins the acceptance contract on *golden* traces —
the deterministic synthetic benchmarks the experiments actually run —
for every registered policy kind, and unit-tests the encoding layer,
the kernel registry, the runner integration, and plugin policies on the
fast engines.
"""

from __future__ import annotations

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.policy import (
    DCachePolicy,
    MODE_PARALLEL,
    MODE_SEQUENTIAL,
    MODE_SINGLE,
    ProbePlan,
)
from repro.core.registry import iter_policies, register_policy, unregister_policy
from repro.fastsim import FastDCacheEngine, FastICacheEngine, FastL2, fast_dcache_kinds
from repro.fastsim.missrate import fast_miss_rate
from repro.sim import runner
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.simulator import Simulator
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.generator import generate_trace
from repro.workload.instr import OP_LOAD, OP_STORE

#: Small system keeping the per-kind sweep fast but conflict-rich.
SMALL = SystemConfig(
    icache=CacheLevelConfig(2, 4, 32, 1),
    dcache=CacheLevelConfig(2, 4, 32, 1),
    l2=CacheLevelConfig(16, 4, 32, 6),
)

#: Golden traces: deterministic synthetic benchmarks, fixed lengths.
GOLDEN = [("gcc", 8_000, 0), ("swim", 8_000, 0), ("vortex", 6_000, 1)]


def _flat_pair(config, trace):
    reference = Simulator(config, backend="reference").run(trace).to_flat()
    fast = Simulator(config, backend="fast").run(trace).to_flat()
    return reference, fast


@pytest.mark.parametrize("kind", [info.kind for info in iter_policies("dcache")])
def test_golden_traces_identical_per_dcache_kind(kind):
    """Acceptance: byte-identical results on golden traces, every kind."""
    config = SMALL.with_dcache_policy(kind)
    for benchmark, instructions, salt in GOLDEN:
        trace = generate_trace(benchmark, instructions, salt)
        reference, fast = _flat_pair(config, trace)
        assert reference == fast, (kind, benchmark)


@pytest.mark.parametrize("kind", [info.kind for info in iter_policies("icache")])
def test_golden_traces_identical_per_icache_kind(kind):
    """Same contract for the i-cache fetch-policy family."""
    config = SMALL.with_icache_policy(kind)
    for benchmark, instructions, salt in GOLDEN[:2]:
        trace = generate_trace(benchmark, instructions, salt)
        reference, fast = _flat_pair(config, trace)
        assert reference == fast, (kind, benchmark)


def test_json_serialization_identical_across_backends():
    """to_flat() dumps byte-identically: dict-valued fields serialize in
    canonical order, not in backend-dependent insertion order."""
    import json

    trace = generate_trace("gcc", 4_000, 0)
    config = SMALL.with_dcache_policy("seldm_waypred")
    reference = Simulator(config, backend="reference").run(trace)
    fast = Simulator(config, backend="fast").run(trace)
    assert json.dumps(reference.to_flat()) == json.dumps(fast.to_flat())


def test_fast_kernels_cover_every_builtin_kind():
    """The inlined kernels cover exactly the static d-cache kinds.

    Dynamic kinds run through the adapter kernel instead, so the
    interval driver reaches the live policy instance on both tiers.
    """
    assert set(fast_dcache_kinds()) == {
        info.kind for info in iter_policies("dcache") if not info.dynamic
    }


def test_plugin_policy_runs_on_fast_engine():
    """A registered plugin kind without an inlined kernel runs on the
    fast d-cache engine through the adapter kernel and matches the
    reference engine.  The plugin exercises every hook: single-way
    plans with ``way=None`` and a fixed way, table reads, training
    writes, forced placement, and victim-list evictions."""

    @register_policy("hook_probe", side="dcache", label="Hook probe")
    class HookProbePolicy(DCachePolicy):
        name = "hook_probe"
        uses_victim_list = True

        def __init__(self):
            self.evicted = set()

        def plan_load(self, pc, addr, xor_handle):
            choice = (pc >> 2) % 4
            if choice == 0:
                return ProbePlan(mode=MODE_SINGLE, kind="direct_mapped", table_reads=1)
            if choice == 1:
                return ProbePlan(mode=MODE_SINGLE, way=1, kind="way_predicted",
                                 table_reads=2)
            if choice == 2:
                return ProbePlan(mode=MODE_SEQUENTIAL, kind="sequential")
            return ProbePlan(mode=MODE_PARALLEL, kind="parallel", table_reads=1)

        def observe_load(self, pc, addr, xor_handle, plan, resident_way,
                         final_way, dm_way):
            return 1 if plan.mode == MODE_SINGLE and resident_way != dm_way else 0

        def placement_way(self, addr, fields):
            if fields.block_address(addr) in self.evicted:
                return None
            return fields.direct_mapped_way(addr)

        def on_eviction(self, block_addr):
            self.evicted.add(block_addr)
            return 1

    try:
        config = SMALL.with_dcache_policy("hook_probe")
        simulator = Simulator(config, backend="fast")
        assert isinstance(simulator.dcache, FastDCacheEngine)
        trace = generate_trace("gcc", 2_000, 0)
        reference = Simulator(config).run(trace).to_flat()
        fast = simulator.run(trace).to_flat()
        assert reference == fast
        # The premises: every plan shape ran, and evictions were noted.
        assert set(fast["dcache_kinds"]) == {
            "direct_mapped", "way_predicted", "mispredicted", "sequential",
            "parallel",
        }
        assert simulator.dcache.policy.evicted
    finally:
        unregister_policy("hook_probe", side="dcache")


def test_simulator_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        Simulator(SystemConfig(), backend="warp")
    with pytest.raises(ValueError, match="unknown backend"):
        runner.execute("gcc", SystemConfig(), 2_000, backend="warp")


@pytest.mark.parametrize(
    "side, kind",
    [(info.side, info.kind) for info in iter_policies()],
    ids=lambda value: value,
)
def test_fast_backend_uses_fast_engines(side, kind):
    """One engine class per cache side: every registered kind, dynamic
    ones included, runs on the fast engines over the fast L2."""
    if side == "dcache":
        config = SMALL.with_dcache_policy(kind)
    else:
        config = SMALL.with_icache_policy(kind)
    simulator = Simulator(config, backend="fast")
    assert isinstance(simulator.dcache, FastDCacheEngine)
    assert isinstance(simulator.icache, FastICacheEngine)
    assert isinstance(simulator.l2, FastL2)
    assert simulator.dcache.l2 is simulator.l2
    assert simulator.icache.l2 is simulator.l2
    assert simulator.backend == "fast"


# ------------------------------------------------------------------ #
# Encoding layer
# ------------------------------------------------------------------ #


def test_encoded_trace_matches_memory_stream():
    trace = generate_trace("gcc", 4_000, 0)
    encoded = encode_trace(trace)
    mem = [i for i in trace.instructions if i.op in (OP_LOAD, OP_STORE)]
    assert len(encoded) == len(mem)
    assert encoded.instructions == len(trace)
    assert list(encoded.addrs) == [i.addr for i in mem]
    assert list(encoded.is_load) == [1 if i.op == OP_LOAD else 0 for i in mem]


def test_encoding_is_memoized_on_the_trace():
    trace = generate_trace("gcc", 2_000, 0)
    assert encode_trace(trace) is encode_trace(trace)


def test_block_decode_is_memoized_per_block_size():
    trace = generate_trace("gcc", 2_000, 0)
    encoded = EncodedTrace(trace)
    fields = CacheGeometry(16 * 1024, 4, 32).fields
    blocks = encoded.blocks(fields)
    assert encoded.blocks(fields) is blocks
    # A geometry with the same block size shares the decode.
    other = CacheGeometry(16 * 1024, 1, 32).fields
    assert encoded.blocks(other) is blocks
    # Values agree with the scalar decode.
    assert blocks[:16] == [fields.block_address(a) for a in encoded.addrs[:16]]


def test_fast_miss_rate_accepts_encoded_trace():
    trace = generate_trace("swim", 4_000, 0)
    geometry = CacheGeometry(8 * 1024, 2, 32)
    from_trace = fast_miss_rate(trace, geometry)
    from_encoded = fast_miss_rate(encode_trace(trace), geometry)
    assert from_trace == from_encoded == measure_miss_rate(trace, geometry)


# ------------------------------------------------------------------ #
# Runner integration
# ------------------------------------------------------------------ #


def test_runner_missrate_backends_agree():
    config = SystemConfig().with_dcache(associativity=4)
    reference = runner.execute("gcc", config, 6_000, mode="missrate")
    fast = runner.execute("gcc", config, 6_000, mode="missrate", backend="fast")
    assert reference.to_flat() == fast.to_flat()


def test_cache_keys_never_collide_across_backends():
    config = SystemConfig()
    keys = {
        runner.cache_key("gcc", config, 1_000, mode=mode, backend=backend)
        for mode in runner.RUN_MODES
        for backend in runner.BACKENDS
    }
    assert len(keys) == len(runner.RUN_MODES) * len(runner.BACKENDS)


def test_runspec_carries_and_validates_backend():
    from repro.sweep.spec import RunSpec, SweepSpec

    fast = RunSpec("gcc", SMALL, 2_000, backend="fast")
    reference = RunSpec("gcc", SMALL, 2_000)
    assert fast != reference and fast.key() != reference.key()
    assert "[fast]" in fast.describe() and "[fast]" not in reference.describe()
    with pytest.raises(ValueError, match="unknown backend"):
        RunSpec("gcc", SMALL, 2_000, backend="warp")
    spec = SweepSpec.from_grid("s", ("gcc",), (SMALL,), 2_000, backend="fast")
    assert all(run.backend == "fast" for run in spec)


def test_sweep_engine_runs_fast_specs(tmp_path, monkeypatch):
    from repro.sweep.engine import SweepEngine
    from repro.sweep.spec import RunSpec

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner.clear_caches()
    engine = SweepEngine(jobs=1)
    fast = engine.run_one(RunSpec("gcc", SMALL, 2_000, backend="fast"))
    reference = engine.run_one(RunSpec("gcc", SMALL, 2_000))
    assert fast.to_flat() == reference.to_flat()
    runner.clear_caches()


def test_run_benchmark_caches_per_backend(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    runner.clear_caches()
    config = SMALL
    fast = runner.run_benchmark("gcc", config, 2_000, backend="fast")
    # The fast result must not satisfy a reference lookup (distinct keys).
    assert runner.load_cached("gcc", config, 2_000, backend="fast") is not None
    assert runner.load_cached("gcc", config, 2_000) is None
    reference = runner.run_benchmark("gcc", config, 2_000)
    assert reference.to_flat() == fast.to_flat()
    runner.clear_caches()

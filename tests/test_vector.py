"""Vector kernel tier: block arrays, tier resolution, kernels, integration.

The vector tier's contract has three legs, each pinned here:

* **Equivalence** — :func:`~repro.fastsim.vector.vector_miss_rate`
  returns exactly what the reference functional model and the python
  fast tier return, for every replacement policy, associativity, and
  warmup edge (with the differential Hypothesis suite adding the
  generative counterpart in ``test_differential.py``).
* **Graceful degradation** — without numpy, or under the
  ``REPRO_NO_VECTOR`` opt-out, every entry point silently resolves to
  the python tier with identical results; nothing anywhere requires
  numpy to import.
* **Plumbing** — numpy is imported by :mod:`repro.fastsim.vector`
  alone; its block arrays (:func:`~repro.fastsim.vector.block_array`)
  are built over the encoding's own raw buffers, read-only, memoized
  per block size, and chunk-construction-equal to eager; runner
  dispatch and the cache key track the *resolved* tier; results stay
  plain-int (JSON-serializable) whatever tier produced them.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.registry import get_policy
from repro.fastsim import vector as vector_module
from repro.fastsim.missrate import fast_miss_rate
from repro.fastsim.vector import (
    NO_VECTOR_ENV,
    block_array,
    numpy_available,
    resolve_tier,
    vector_enabled,
    vector_miss_rate,
)
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.simulator import BACKENDS, Simulator
from repro.workload.encode import encode_trace
from repro.workload.generator import generate_trace
from repro.workload.instr import OP_LOAD, OP_STORE, Instr
from repro.workload.trace import StreamingTrace, Trace

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy unavailable")


def _balanced_trace(sets: int = 64, length: int = 6_000) -> Trace:
    """A stream visiting every set evenly (the PLRU rounds sweet spot),
    with a deterministic LCG supplying tag/op variety."""
    state = 12345
    instrs = []
    for i in range(length):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        tag = (state >> 33) % 9
        addr = ((tag * sets + i % sets) << 5) | ((state >> 11) % 32 & ~3)
        op = OP_LOAD if (state >> 7) % 3 else OP_STORE
        instrs.append(Instr(0x1000 + 4 * i, op, dst=1, addr=addr))
    return Trace("balanced", instrs)


def _skewed_trace(length: int = 600) -> Trace:
    """Every access lands in one set: rounds degenerate to width one."""
    instrs = [
        Instr(0x1000 + 4 * i, OP_LOAD if i % 2 else OP_STORE, dst=1,
              addr=(i % 7) << 16)
        for i in range(length)
    ]
    return Trace("skewed", instrs)


# ------------------------------------------------------------------ #
# Tier resolution
# ------------------------------------------------------------------ #


class TestTierResolution:
    def test_backends_tuple_exposes_all_tiers(self):
        assert BACKENDS == ("reference", "fast", "vector")

    def test_reference_never_resolves_away(self):
        assert resolve_tier("reference", "missrate") == "reference"
        assert resolve_tier("reference", "sim") == "reference"

    def test_sim_mode_always_runs_the_fast_pipeline(self):
        assert resolve_tier("fast", "sim") == "fast"
        assert resolve_tier("vector", "sim") == "fast"

    @requires_numpy
    def test_fast_auto_upgrades_for_missrate(self):
        assert resolve_tier("fast", "missrate") == "vector"
        assert resolve_tier("vector", "missrate") == "vector"

    def test_env_opt_out_pins_python_kernels(self, monkeypatch):
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        assert not vector_enabled()
        assert resolve_tier("fast", "missrate") == "fast"
        assert resolve_tier("vector", "missrate") == "fast"

    def test_without_numpy_vector_degrades(self, monkeypatch):
        monkeypatch.setattr(vector_module, "np", None)
        assert not numpy_available()
        assert not vector_enabled()
        assert resolve_tier("vector", "missrate") == "fast"


# ------------------------------------------------------------------ #
# numpy confinement and the vector tier's block arrays
# ------------------------------------------------------------------ #


def test_only_the_vector_module_imports_numpy():
    """numpy is known to one module, so every other module of the
    package imports and runs without it."""
    package = Path(vector_module.__file__).resolve().parents[1]
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"fastsim/vector.py"}


@requires_numpy
class TestEncodedViews:
    GEOMETRY = CacheGeometry(4 * 1024, 4, 32)

    def test_views_are_zero_copy_read_only_and_memoized(self):
        import numpy as np

        encoded = encode_trace(generate_trace("gcc", 2_000))
        # Without an artifact the raw buffers are the array storage.
        assert encoded.buffer("addrs") is encoded.addrs
        assert encoded.buffer("is_load") is encoded.is_load
        blocks = block_array(encoded, self.GEOMETRY.fields)
        assert blocks.dtype == np.uint64 and blocks.shape == (len(encoded),)
        # Memoized per block size: a geometry sharing it shares the array.
        assert block_array(encoded, self.GEOMETRY.fields) is blocks
        assert block_array(encoded, CacheGeometry(16 * 1024, 1, 32).fields) is blocks
        with pytest.raises(ValueError):
            blocks[0] = 0

    def test_block_decode_matches_scalar_arithmetic(self):
        encoded = encode_trace(generate_trace("swim", 2_000))
        fields = self.GEOMETRY.fields
        blocks = block_array(encoded, fields)
        assert blocks.tolist() == encoded.blocks(fields)
        assert blocks.tolist() == [a >> fields.offset_bits for a in encoded.addrs]
        assert not blocks.flags.writeable

    def test_chunkwise_construction_equals_eager(self):
        import numpy as np

        eager = generate_trace("li", 3_000)
        instrs = list(eager.instructions)
        streaming = StreamingTrace("li-stream", lambda: iter(instrs),
                                   chunk_instructions=128)
        fields = self.GEOMETRY.fields
        chunked, whole = encode_trace(streaming), encode_trace(eager)
        for name in ("addrs", "is_load"):
            assert bytes(chunked.buffer(name)) == bytes(whole.buffer(name))
        assert np.array_equal(block_array(chunked, fields), block_array(whole, fields))

    def test_empty_trace_views(self):
        encoded = encode_trace(Trace("empty", []))
        assert len(encoded.buffer("addrs")) == len(encoded.buffer("is_load")) == 0
        assert block_array(encoded, self.GEOMETRY.fields).shape == (0,)


# ------------------------------------------------------------------ #
# Kernel equivalence
# ------------------------------------------------------------------ #


class TestVectorMissRate:
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_matches_reference_and_fast(self, replacement, assoc):
        trace = generate_trace("gcc", 6_000)
        geometry = CacheGeometry(1024 * assoc, assoc, 32)
        for warmup in (0.0, 0.2, 0.999):
            reference = measure_miss_rate(trace, geometry, replacement, warmup)
            fast = fast_miss_rate(trace, geometry, replacement, warmup)
            vector = vector_miss_rate(trace, geometry, replacement, warmup)
            assert reference == fast == vector

    def test_rejects_bad_warmup_like_the_other_tiers(self):
        trace = Trace("t", [Instr(0x1000, OP_LOAD, dst=1, addr=0x40)])
        geometry = CacheGeometry(1024, 2, 32)
        for warmup in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                vector_miss_rate(trace, geometry, warmup_fraction=warmup)

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_rejects_unknown_replacement(self, assoc):
        trace = Trace("t", [Instr(0x1000, OP_LOAD, dst=1, addr=0x40)])
        geometry = CacheGeometry(1024 * assoc, assoc, 32)
        with pytest.raises(ValueError, match="unknown replacement"):
            vector_miss_rate(trace, geometry, replacement="bogus")

    def test_empty_trace(self):
        geometry = CacheGeometry(1024, 4, 32)
        for replacement in ("lru", "plru", "fifo"):
            reference = measure_miss_rate(Trace("e", []), geometry, replacement)
            assert vector_miss_rate(Trace("e", []), geometry, replacement) == reference

    def test_opt_out_is_lossless(self, monkeypatch):
        trace = generate_trace("mgrid", 4_000)
        geometry = CacheGeometry(4 * 1024, 4, 32)
        baseline = measure_miss_rate(trace, geometry, "lru", 0.2)
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        assert vector_miss_rate(trace, geometry, "lru", 0.2) == baseline

    @requires_numpy
    def test_plru_rounds_kernel_engages_on_balanced_streams(self):
        trace = _balanced_trace(sets=64)
        geometry = CacheGeometry(8 * 1024, 4, 32)  # 64 sets
        import numpy as np

        encoded = encode_trace(trace)
        blocks = block_array(encoded, geometry.fields)
        warmup = int(blocks.shape[0] * 0.2)
        hits = vector_module._plru(blocks, geometry.num_sets, 4)
        assert hits is not None, "rounds kernel unexpectedly hit the skew guard"
        loads = np.frombuffer(encoded.buffer("is_load"), dtype=np.bool_)
        counted, loads = ~hits[warmup:], loads[warmup:]
        counts = (
            counted.size,
            int(counted.sum()),
            int(loads.sum()),
            int((counted & loads).sum()),
        )
        reference = measure_miss_rate(trace, geometry, "plru", 0.2)
        assert counts == (
            reference.accesses,
            reference.misses,
            reference.load_accesses,
            reference.load_misses,
        )
        assert vector_miss_rate(trace, geometry, "plru", 0.2) == reference

    @requires_numpy
    def test_plru_rounds_kernel_classifies_flushed_epochs(self, monkeypatch):
        """After a dri flush the rounds kernel classifies the new epoch's
        horizon, not the whole stream, and every tier still agrees.
        (Hypothesis-sized traces never fill a round, so only a long
        balanced stream reaches this path.)"""
        engaged = []
        plru = vector_module._plru

        def recording_plru(blocks, num_sets, assoc):
            mask = plru(blocks, num_sets, assoc)
            if mask is not None:
                engaged.append(blocks.shape[0])
            return mask

        monkeypatch.setattr(vector_module, "_plru", recording_plru)
        trace = _balanced_trace(sets=64)
        geometry = CacheGeometry(8 * 1024, 4, 32)
        factory = functools.partial(
            get_policy("dri", "dcache").build, miss_hi=0.2, miss_lo=0.01, max_kb=32
        )
        results = [
            measure(trace, geometry, "plru", 0.2, interval=500,
                    policy_factory=factory)
            for measure in (measure_miss_rate, fast_miss_rate, vector_miss_rate)
        ]
        assert results[0].reconfigurations > 0
        assert min(engaged) < len(encode_trace(trace))
        assert results[0] == results[1] == results[2]

    @requires_numpy
    def test_plru_skew_guard_falls_back_correctly(self):
        trace = _skewed_trace()
        geometry = CacheGeometry(32 * 1024, 4, 32)  # 256 sets, one used
        blocks = block_array(encode_trace(trace), geometry.fields)
        hits = vector_module._plru(blocks, geometry.num_sets, 4)
        assert hits is None  # guard tripped: rounds of width one
        reference = measure_miss_rate(trace, geometry, "plru", 0.2)
        assert vector_miss_rate(trace, geometry, "plru", 0.2) == reference

    @requires_numpy
    def test_plru_two_way_routes_to_the_lru_kernel(self):
        # A 2-way tree is exact LRU; the route must stay byte-identical.
        trace = _balanced_trace(sets=32)
        geometry = CacheGeometry(2 * 1024, 2, 32)
        reference = measure_miss_rate(trace, geometry, "plru", 0.2)
        assert vector_miss_rate(trace, geometry, "plru", 0.2) == reference

    @requires_numpy
    def test_counts_are_plain_ints(self):
        result = vector_miss_rate(generate_trace("gcc", 2_000),
                                  CacheGeometry(4 * 1024, 4, 32))
        for value in (result.accesses, result.misses,
                      result.load_accesses, result.load_misses):
            assert type(value) is int  # numpy scalars would break JSON
        json.dumps(dataclasses.asdict(result))


# ------------------------------------------------------------------ #
# Runner / simulator integration
# ------------------------------------------------------------------ #


class TestRunnerIntegration:
    CONFIG = SystemConfig().with_dcache(associativity=4)

    def test_missrate_execute_identical_and_serializable(self):
        reference = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate")
        vector = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate",
                                backend="vector")
        assert reference.to_flat() == vector.to_flat()
        json.dumps(vector.to_flat())  # plain types end to end

    def test_sim_execute_runs_the_fast_pipeline(self):
        reference = runner.execute("gcc", self.CONFIG, 2_000, mode="sim")
        vector = runner.execute("gcc", self.CONFIG, 2_000, mode="sim",
                                backend="vector")
        assert reference.to_flat() == vector.to_flat()

    def test_simulator_builds_fast_engines_for_vector(self):
        from repro.fastsim import FastDCacheEngine, FastICacheEngine

        simulator = Simulator(self.CONFIG, backend="vector")
        assert isinstance(simulator.dcache, FastDCacheEngine)
        assert isinstance(simulator.icache, FastICacheEngine)

    def test_cache_key_tracks_the_resolved_tier(self, monkeypatch):
        args = ("gcc", self.CONFIG, 6_000)
        resolved = runner.cache_key(*args, mode="missrate", backend="fast")
        sim_key = runner.cache_key(*args, mode="sim", backend="fast")
        monkeypatch.setenv(NO_VECTOR_ENV, "1")
        pinned = runner.cache_key(*args, mode="missrate", backend="fast")
        if numpy_available():
            # Same request, different resolved tier: distinct entries.
            assert pinned != resolved
        else:
            assert pinned == resolved
        # Sim mode never resolves to the vector kernels: env-invariant.
        assert sim_key == runner.cache_key(*args, mode="sim", backend="fast")

    def test_backend_tiers_share_no_cache_entries(self):
        keys = {
            runner.cache_key("gcc", self.CONFIG, 1_000, mode="missrate",
                             backend=backend)
            for backend in BACKENDS
        }
        assert len(keys) == len(BACKENDS)

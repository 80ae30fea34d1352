"""Vector kernel tier: block arrays, tier resolution, kernels, integration.

The vector tier's contract has three legs, each pinned here:

* **Equivalence** — :func:`~repro.fastsim.vector.vector_miss_rate`
  returns exactly what the reference functional model and the python
  fast tier return, for every associativity and warmup edge (with the
  differential Hypothesis suite adding the generative counterpart in
  ``test_differential.py``).
* **Graceful degradation** — without numpy (hidden here by patching
  the module's ``np`` to ``None``) every entry point silently resolves
  to the python tier with identical results; nothing anywhere requires
  numpy to import.
* **Plumbing** — numpy is imported by :mod:`repro.fastsim.vector`
  alone; its block arrays (:func:`~repro.fastsim.vector.block_array`)
  are built over the encoding's own raw buffers, read-only, memoized
  per block size, and chunk-construction-equal to eager; runner
  dispatch follows the *resolved* tier, while the cache key names only
  the requested backend; results stay plain-int (JSON-serializable)
  whatever tier produced them.
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
    block_array,
    numpy_available,
    resolve_tier,
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
    """A stream visiting every set evenly, with a deterministic LCG
    supplying tag/op variety."""
    state = 12345
    instrs = []
    for i in range(length):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        tag = (state >> 33) % 9
        addr = ((tag * sets + i % sets) << 5) | ((state >> 11) % 32 & ~3)
        op = OP_LOAD if (state >> 7) % 3 else OP_STORE
        instrs.append(Instr(0x1000 + 4 * i, op, dst=1, addr=addr))
    return Trace("balanced", instrs)


# ------------------------------------------------------------------ #
# Tier resolution
# ------------------------------------------------------------------ #


class TestTierResolution:
    def test_backends_tuple_exposes_all_tiers(self):
        """Two backends; the vector kernels are a tier of ``fast``."""
        assert BACKENDS == ("reference", "fast")

    def test_reference_never_resolves_away(self):
        assert resolve_tier("reference", "missrate") == "reference"
        assert resolve_tier("reference", "sim") == "reference"

    def test_sim_mode_always_runs_the_fast_pipeline(self):
        assert resolve_tier("fast", "sim") == "fast"

    @requires_numpy
    def test_fast_auto_upgrades_for_missrate(self):
        assert resolve_tier("fast", "missrate") == "vector"

    def test_without_numpy_vector_degrades(self, monkeypatch):
        monkeypatch.setattr(vector_module, "np", None)
        assert not numpy_available()
        assert resolve_tier("fast", "missrate") == "fast"


# ------------------------------------------------------------------ #
# numpy confinement and the vector tier's block arrays
# ------------------------------------------------------------------ #


def _importers(package_name: str) -> set:
    """Package-relative paths of the ``repro`` modules that import
    ``package_name`` or one of its modules, at any nesting depth."""
    package = Path(vector_module.__file__).resolve().parents[1]
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
                modules += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(m == package_name or m.startswith(package_name + ".")
                   for m in modules):
                importers.add(path.relative_to(package).as_posix())
    return importers


def test_only_the_vector_module_imports_numpy():
    """numpy is known to one module, so every other module of the
    package imports and runs without it."""
    assert _importers("numpy") == {"fastsim/vector.py"}


def test_engines_and_cores_never_import_the_energy_models():
    """The cache engines only count events; the simulator prices them.
    So no module of the cache, core, cpu or fast-tier layers imports
    ``repro.energy``."""
    layers = ("cache/", "core/", "cpu/", "fastsim/")
    assert {path for path in _importers("repro.energy") if path.startswith(layers)} == set()


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
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_matches_reference_and_fast(self, assoc):
        trace = generate_trace("gcc", 6_000)
        geometry = CacheGeometry(1024 * assoc, assoc, 32)
        for warmup in (0.0, 0.2, 0.999):
            reference = measure_miss_rate(trace, geometry, warmup)
            fast = fast_miss_rate(trace, geometry, warmup)
            vector = vector_miss_rate(trace, geometry, warmup)
            assert reference == fast == vector

    def test_rejects_bad_warmup_like_the_other_tiers(self):
        trace = Trace("t", [Instr(0x1000, OP_LOAD, dst=1, addr=0x40)])
        geometry = CacheGeometry(1024, 2, 32)
        for warmup in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                vector_miss_rate(trace, geometry, warmup_fraction=warmup)

    def test_empty_trace(self):
        geometry = CacheGeometry(1024, 4, 32)
        reference = measure_miss_rate(Trace("e", []), geometry)
        assert vector_miss_rate(Trace("e", []), geometry) == reference

    def test_opt_out_is_lossless(self, monkeypatch):
        """Without numpy (hidden here) a direct call falls back to the
        python kernels whole, with the same result."""
        trace = generate_trace("mgrid", 4_000)
        geometry = CacheGeometry(4 * 1024, 4, 32)
        baseline = measure_miss_rate(trace, geometry, 0.2)
        monkeypatch.setattr(vector_module, "np", None)
        assert vector_miss_rate(trace, geometry, 0.2) == baseline

    @requires_numpy
    def test_classifier_classifies_flushed_epochs(self, monkeypatch):
        """After a dri flush the LRU classifier classifies the new
        epoch's horizon, not the whole stream, and every tier still
        agrees."""
        engaged = []
        lru = vector_module._lru

        def recording_lru(blocks, num_sets, assoc):
            engaged.append(blocks.shape[0])
            return lru(blocks, num_sets, assoc)

        monkeypatch.setattr(vector_module, "_lru", recording_lru)
        trace = _balanced_trace(sets=64)
        geometry = CacheGeometry(8 * 1024, 4, 32)
        factory = functools.partial(
            get_policy("dri", "dcache").build, miss_hi=0.2, miss_lo=0.01, max_kb=32
        )
        results = [
            measure(trace, geometry, 0.2, interval=500, policy_factory=factory)
            for measure in (measure_miss_rate, fast_miss_rate, vector_miss_rate)
        ]
        assert results[0].reconfigurations > 0
        assert min(engaged) < len(encode_trace(trace))
        assert results[0] == results[1] == results[2]

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

    def test_missrate_execute_identical_and_serializable(self, monkeypatch):
        reference = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate")
        fast = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate",
                              backend="fast")
        assert reference.to_flat() == fast.to_flat()
        json.dumps(fast.to_flat())  # plain types end to end
        monkeypatch.setattr(vector_module, "np", None)
        python = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate",
                                backend="fast")
        assert python.to_flat() == reference.to_flat()

    def test_sim_execute_runs_the_fast_pipeline(self, monkeypatch):
        """Sim mode never touches the vector kernels: hiding numpy
        changes nothing."""
        reference = runner.execute("gcc", self.CONFIG, 2_000, mode="sim")
        monkeypatch.setattr(vector_module, "np", None)
        fast = runner.execute("gcc", self.CONFIG, 2_000, mode="sim",
                              backend="fast")
        assert reference.to_flat() == fast.to_flat()

    def test_vector_is_not_a_backend(self):
        for mode in runner.RUN_MODES:
            with pytest.raises(ValueError, match="unknown backend"):
                runner.execute("gcc", self.CONFIG, 1_000, mode=mode,
                               backend="vector")
        with pytest.raises(ValueError, match="unknown backend"):
            Simulator(self.CONFIG, backend="vector")

    def test_cache_key_is_equal_with_numpy_hidden(self, monkeypatch):
        """The key names the requested backend, not the kernel tier it
        resolves to: a cache filled with numpy present serves a process
        without it."""
        args = ("gcc", self.CONFIG, 6_000)
        visible = runner.cache_key(*args, mode="missrate", backend="fast")
        monkeypatch.setattr(vector_module, "np", None)
        assert runner.cache_key(*args, mode="missrate", backend="fast") == visible

    def test_backend_tiers_share_no_cache_entries(self):
        keys = {
            runner.cache_key("gcc", self.CONFIG, 1_000, mode="missrate",
                             backend=backend)
            for backend in BACKENDS
        }
        assert len(keys) == len(BACKENDS)

"""The vector module's kept names, the encoding views, the backend contract.

The numpy kernels :mod:`repro.fastsim.vector` once held are deleted, and
no module of the package imports numpy.  The module keeps three names
that the benchmark harness reads, and each is pinned here:

* **Tier resolution** — :func:`~repro.fastsim.vector.resolve_tier`
  returns the backend it is given, in either run mode.
* **Miss-rate names** — ``vector.fast_miss_rate`` and the runner's
  ``"vector"`` measure (which the harness's traced pass wraps) are the
  python driver: they return exactly what the reference functional
  model returns, for every associativity and warmup edge, in plain
  ints.
* **Encoding views** — the encodings the re-exported
  :func:`~repro.fastsim.vector.encode_trace` returns hand out their raw
  buffers without copying (read-only when an artifact backs them) and
  a block decode memoized per block size, chunk-construction-equal to
  eager.

Beside them, the runner contract the deleted tier once bent: two
backends, dispatch on the backend, a cache key that names only the
backend and nothing of the install; and the package's import layering.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cache.geometry import CacheGeometry
from repro.fastsim import vector as vector_module
from repro.fastsim.missrate import fast_miss_rate
from repro.fastsim.vector import encode_trace, resolve_tier
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.simulator import BACKENDS, Simulator
from repro.workload.artifact import load_artifact, write_artifact
from repro.workload.encode import EncodedTrace
from repro.workload.generator import generate_trace
from repro.workload.instr import OP_LOAD, Instr
from repro.workload.trace import StreamingTrace, Trace

#: ``PYTHONPATH`` that lets a child interpreter import this package.
_SRC = str(Path(repro.__file__).resolve().parents[1])


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    process = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True, timeout=60)
    return process.stdout


# ------------------------------------------------------------------ #
# Tier resolution
# ------------------------------------------------------------------ #


class TestTierResolution:
    def test_backends_tuple_exposes_all_tiers(self):
        """Two backends, each one kernel tier."""
        assert BACKENDS == ("reference", "fast")

    def test_reference_never_resolves_away(self):
        assert resolve_tier("reference", "missrate") == "reference"
        assert resolve_tier("reference", "sim") == "reference"

    def test_sim_mode_always_runs_the_fast_pipeline(self):
        assert resolve_tier("fast", "sim") == "fast"


# ------------------------------------------------------------------ #
# Module layering
# ------------------------------------------------------------------ #


def _importers(package_name: str) -> set:
    """Package-relative paths of the ``repro`` modules that import
    ``package_name`` or one of its modules, at any nesting depth."""
    package = Path(repro.__file__).resolve().parent
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


def test_no_module_imports_numpy():
    """Every module of the package imports and runs without numpy, and
    no process pays for importing it, even with numpy installed."""
    assert _importers("numpy") == set()
    code = (
        "import sys, repro.cli, repro.service.app, repro.experiments.table5\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _run_python(code).split() == ["False"]


def test_engines_and_cores_never_import_the_energy_models():
    """The cache engines only count events; the simulator prices them.
    So no module of the cache, core, cpu or fast-tier layers imports
    ``repro.energy``."""
    layers = ("cache/", "core/", "cpu/", "fastsim/")
    assert {path for path in _importers("repro.energy") if path.startswith(layers)} == set()


# ------------------------------------------------------------------ #
# Encoding views
# ------------------------------------------------------------------ #


class TestEncodedViews:
    GEOMETRY = CacheGeometry(4 * 1024, 4, 32)

    def test_views_are_zero_copy_read_only_and_memoized(self, tmp_path):
        encoded = encode_trace(generate_trace("gcc", 2_000))
        # Without an artifact the raw buffers are the array storage.
        assert encoded.buffer("addrs") is encoded.addrs
        assert encoded.buffer("is_load") is encoded.is_load
        blocks = encoded.blocks(self.GEOMETRY.fields)
        assert len(blocks) == len(encoded)
        # Memoized per block size: a geometry sharing it shares the decode.
        assert encoded.blocks(self.GEOMETRY.fields) is blocks
        assert encoded.blocks(CacheGeometry(16 * 1024, 1, 32).fields) is blocks
        assert encoded.blocks(CacheGeometry(4 * 1024, 4, 64).fields) is not blocks
        # With an artifact the buffer is a read-only window onto the file.
        path = tmp_path / "views.etr"
        assert write_artifact(path, encoded.name, encoded.instructions,
                              encoded.export_sections())
        restored = EncodedTrace.from_artifact(load_artifact(path))
        with pytest.raises(TypeError):
            restored.buffer("addrs")[0] = 0
        assert restored.blocks(self.GEOMETRY.fields) == blocks

    def test_block_decode_matches_scalar_arithmetic(self):
        encoded = encode_trace(generate_trace("swim", 2_000))
        fields = self.GEOMETRY.fields
        blocks = encoded.blocks(fields)
        assert blocks == [a >> fields.offset_bits for a in encoded.addrs]
        assert all(type(block) is int for block in blocks)

    def test_chunkwise_construction_equals_eager(self):
        eager = generate_trace("li", 3_000)
        instrs = list(eager.instructions)
        streaming = StreamingTrace("li-stream", lambda: iter(instrs),
                                   chunk_instructions=128)
        fields = self.GEOMETRY.fields
        chunked, whole = encode_trace(streaming), encode_trace(eager)
        for name in ("addrs", "is_load"):
            assert bytes(chunked.buffer(name)) == bytes(whole.buffer(name))
        assert chunked.blocks(fields) == whole.blocks(fields)

    def test_empty_trace_views(self):
        encoded = encode_trace(Trace("empty", []))
        assert len(encoded.buffer("addrs")) == len(encoded.buffer("is_load")) == 0
        assert encoded.blocks(self.GEOMETRY.fields) == []


# ------------------------------------------------------------------ #
# The miss-rate names the benchmark harness wraps
# ------------------------------------------------------------------ #


class TestVectorMissRate:
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_matches_reference_and_fast(self, assoc):
        trace = generate_trace("gcc", 6_000)
        geometry = CacheGeometry(1024 * assoc, assoc, 32)
        measure = runner._MISSRATE_MEASURES["vector"]
        for warmup in (0.0, 0.2, 0.999):
            reference = measure_miss_rate(trace, geometry, warmup)
            fast = fast_miss_rate(trace, geometry, warmup)
            assert vector_module.fast_miss_rate(trace, geometry, warmup) == reference
            assert measure(trace, geometry, warmup) == reference
            assert fast == reference

    def test_rejects_bad_warmup_like_the_other_tiers(self):
        trace = Trace("t", [Instr(0x1000, OP_LOAD, dst=1, addr=0x40)])
        geometry = CacheGeometry(1024, 2, 32)
        for warmup in (-0.1, 1.0, 1.5):
            for measure in (measure_miss_rate, vector_module.fast_miss_rate):
                with pytest.raises(ValueError):
                    measure(trace, geometry, warmup_fraction=warmup)

    def test_empty_trace(self):
        geometry = CacheGeometry(1024, 4, 32)
        reference = measure_miss_rate(Trace("e", []), geometry)
        assert vector_module.fast_miss_rate(Trace("e", []), geometry) == reference

    def test_counts_are_plain_ints(self):
        result = vector_module.fast_miss_rate(generate_trace("gcc", 2_000),
                                              CacheGeometry(4 * 1024, 4, 32))
        for value in (result.accesses, result.misses,
                      result.load_accesses, result.load_misses):
            assert type(value) is int
        json.dumps(dataclasses.asdict(result))


# ------------------------------------------------------------------ #
# Runner / simulator integration
# ------------------------------------------------------------------ #


class TestRunnerIntegration:
    CONFIG = SystemConfig().with_dcache(associativity=4)

    def test_missrate_execute_identical_and_serializable(self):
        reference = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate")
        fast = runner.execute("gcc", self.CONFIG, 6_000, mode="missrate",
                              backend="fast")
        assert reference.to_flat() == fast.to_flat()
        json.dumps(fast.to_flat())  # plain types end to end

    def test_sim_execute_runs_the_fast_pipeline(self):
        reference = runner.execute("gcc", self.CONFIG, 2_000, mode="sim")
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

    def test_cache_key_is_equal_with_numpy_hidden(self):
        """The key names the requested backend and nothing of the
        install: a cache filled where numpy is installed serves a
        process that cannot import it."""
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.sim import runner\n"
            "from repro.sim.config import SystemConfig\n"
            "config = SystemConfig().with_dcache(associativity=4)\n"
            "print(runner.cache_key('gcc', config, 6000, mode='missrate',"
            " backend='fast'))\n"
        )
        visible = runner.cache_key("gcc", self.CONFIG, 6_000, mode="missrate",
                                   backend="fast")
        assert _run_python(code).strip() == visible

    def test_backend_tiers_share_no_cache_entries(self):
        keys = {
            runner.cache_key("gcc", self.CONFIG, 1_000, mode="missrate",
                             backend=backend)
            for backend in BACKENDS
        }
        assert len(keys) == len(BACKENDS)

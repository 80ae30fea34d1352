"""Encoded-trace artifact tests: format, failure modes, runner policy.

The correctness bar for the artifact cache is silence: every failure
mode (truncation, magic/version skew, concurrent writers, numpy-absent
loads of numpy-written files) must fall back to re-encoding with
byte-identical results, never crash and never serve wrong data.
"""

import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.cache.geometry import CacheGeometry
from repro.fastsim import vector as vector_module
from repro.fastsim.vector import block_array
from repro.workload import formats as formats_module
from repro.workload.artifact import (
    ARTIFACT_VERSION,
    INSTR_SECTIONS,
    MAGIC,
    TraceArtifact,
    list_to_bytes,
    load_artifact,
    write_artifact,
)
from repro.workload.encode import ENCODER_VERSION, EncodedTrace, encode_trace
from repro.workload.formats import (
    make_trace_ref,
    register_trace_format,
    unregister_trace_format,
    write_trace,
)
from repro.workload import trace as trace_module
from repro.workload.generator import generate_trace
from repro.workload.trace import ColumnTrace, LazyTrace

GEOMETRY = CacheGeometry(8 * 1024, 4, 32)


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    """Fresh run/artifact caches and zeroed counters for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_NO_ARTIFACTS", raising=False)
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    runner.clear_caches()
    runner.reset_artifact_stats()
    yield
    runner.clear_caches()
    runner.reset_artifact_stats()


def _encode_full(instructions=4_000, salt=0):
    """A fully built encoding (mem stream, a block decode, instr arrays)."""
    trace = generate_trace("gcc", instructions, salt)
    encoded = encode_trace(trace)
    encoded.blocks(GEOMETRY.fields)
    encoded.ensure_instr_arrays(trace)
    return trace, encoded


# ------------------------------------------------------------------ #
# Binary format round-trip
# ------------------------------------------------------------------ #


class TestFormatRoundTrip:
    def test_full_round_trip_is_lossless(self, tmp_path):
        _trace, encoded = _encode_full()
        path = tmp_path / "full.etr"
        assert write_artifact(
            path, encoded.name, encoded.instructions, encoded.export_sections()
        )
        artifact = load_artifact(path)
        assert artifact is not None
        restored = EncodedTrace.from_artifact(artifact)
        assert restored.name == encoded.name
        assert restored.instructions == encoded.instructions
        assert len(restored) == len(encoded)
        assert list(restored.addrs) == list(encoded.addrs)
        assert list(restored.is_load) == list(encoded.is_load)
        assert restored.blocks(GEOMETRY.fields) == encoded.blocks(GEOMETRY.fields)
        restored.ensure_instr_arrays(None)  # restores, never touches a trace
        for name, _dtype in INSTR_SECTIONS:
            assert getattr(restored, name) == getattr(encoded, name), name
        assert all(isinstance(value, bool) for value in restored.takens)

    def test_numpy_views_alias_and_match(self, tmp_path):
        np = pytest.importorskip("numpy")
        _trace, encoded = _encode_full()
        path = tmp_path / "np.etr"
        write_artifact(
            path, encoded.name, encoded.instructions, encoded.export_sections()
        )
        restored = EncodedTrace.from_artifact(load_artifact(path))
        assert np.array_equal(
            block_array(restored, GEOMETRY.fields), block_array(encoded, GEOMETRY.fields)
        )
        assert bytes(restored.buffer("is_load")) == encoded.is_load.tobytes()
        # Zero-copy: the vector tier's views are windows onto the mapped
        # buffer, not per-process heap copies.
        addrs = np.frombuffer(restored.buffer("addrs"), dtype=np.uint64)
        assert restored._addrs is None
        assert addrs.tolist() == list(encoded.addrs)
        assert not addrs.flags.writeable

    def test_mem_only_artifact_then_upgrade(self, tmp_path):
        trace = generate_trace("swim", 3_000)
        encoded = encode_trace(trace)
        len(encoded)  # build only the mem stream
        path = tmp_path / "mem.etr"
        assert write_artifact(
            path, encoded.name, encoded.instructions, encoded.export_sections()
        )
        artifact = load_artifact(path)
        assert artifact is not None and not artifact.has("ops")
        restored = EncodedTrace.from_artifact(artifact)
        # Upgrade: instruction arrays built later re-export with the
        # mem stream passing through from the mapped artifact.
        restored.ensure_instr_arrays(generate_trace("swim", 3_000))
        upgraded = restored.export_sections()
        assert write_artifact(path, restored.name, restored.instructions, upgraded)
        again = load_artifact(path)
        assert again is not None and again.has("ops") and again.has("addrs")

    def test_rejects_unaligned_payload_length(self, tmp_path):
        assert not write_artifact(
            tmp_path / "bad.etr", "t", 1,
            {"addrs": ("Q", b"\x00" * 9), "is_load": ("b", b"\x00")},
        )

    def test_rejects_unknown_dtype(self, tmp_path):
        assert not write_artifact(
            tmp_path / "bad.etr", "t", 1,
            {"addrs": ("d", b"\x00" * 8), "is_load": ("b", b"\x00")},
        )


# ------------------------------------------------------------------ #
# Failure modes: every corruption silently misses
# ------------------------------------------------------------------ #


class TestCorruptArtifacts:
    @pytest.fixture
    def artifact_bytes(self, tmp_path):
        _trace, encoded = _encode_full(2_000)
        path = tmp_path / "good.etr"
        write_artifact(
            path, encoded.name, encoded.instructions, encoded.export_sections()
        )
        return path.read_bytes()

    def _expect_none(self, tmp_path, data):
        path = tmp_path / "corrupt.etr"
        path.write_bytes(data)
        assert load_artifact(path) is None

    def test_missing_file(self, tmp_path):
        assert load_artifact(tmp_path / "absent.etr") is None

    def test_empty_file(self, tmp_path):
        self._expect_none(tmp_path, b"")

    @pytest.mark.parametrize("keep", [3, 11, 40])
    def test_truncated_header(self, tmp_path, artifact_bytes, keep):
        self._expect_none(tmp_path, artifact_bytes[:keep])

    def test_truncated_payload(self, tmp_path, artifact_bytes):
        # Cut inside the section payloads: the header parses, but every
        # section is bounds-checked against the file size.
        self._expect_none(tmp_path, artifact_bytes[: len(artifact_bytes) // 2])

    def test_wrong_magic(self, tmp_path, artifact_bytes):
        self._expect_none(tmp_path, b"XXXX" + artifact_bytes[4:])

    def test_format_version_skew(self, tmp_path, artifact_bytes):
        head = MAGIC + struct.pack("<I", ARTIFACT_VERSION + 1)
        self._expect_none(tmp_path, head + artifact_bytes[8:])

    def test_encoder_version_skew(self, tmp_path, artifact_bytes):
        old = f'"encoder": {ENCODER_VERSION}'.encode()
        new = f'"encoder": {ENCODER_VERSION + 1}'.encode()
        assert old in artifact_bytes
        # Same-length substitution keeps every offset valid — only the
        # encoder version disagrees, which must be skew enough.
        self._expect_none(
            tmp_path, artifact_bytes.replace(old, new.ljust(len(old))[: len(old)])
        )

    def test_header_garbage(self, tmp_path, artifact_bytes):
        data = bytearray(artifact_bytes)
        data[16:24] = b"\xff" * 8  # stomp the header JSON
        self._expect_none(tmp_path, bytes(data))

    def test_incoherent_sections_rejected(self):
        # A mem stream without load flags, or a partial instr group,
        # must never validate (TraceArtifact is only reachable through
        # load_artifact, so drive the validator directly).
        from repro.workload.artifact import _validate_sections

        assert not _validate_sections({})
        assert not _validate_sections({"addrs": ("Q", 4, 64)})
        assert not _validate_sections(
            {"addrs": ("Q", 4, 64), "is_load": ("b", 5, 96)}
        )
        good = {"addrs": ("Q", 4, 64), "is_load": ("b", 4, 96)}
        assert _validate_sections(dict(good))
        partial = dict(good)
        partial["ops"] = ("b", 9, 104)
        assert not _validate_sections(partial)

    def test_corrupt_artifact_falls_back_to_reencode(self, tmp_path, monkeypatch):
        """The runner path: a torn artifact silently re-encodes with
        byte-identical results and then heals the file."""
        config = SystemConfig()
        baseline = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        directory = runner.artifact_dir()
        files = list(directory.glob("*.etr"))
        assert len(files) == 1
        files[0].write_bytes(files[0].read_bytes()[:100])  # tear it
        runner.clear_caches()
        runner.reset_artifact_stats()
        healed = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert healed.to_flat() == baseline.to_flat()
        stats = runner.artifact_stats()
        assert stats["loads"] == 0 and stats["stores"] == 1
        assert load_artifact(files[0]) is not None  # re-published whole


# ------------------------------------------------------------------ #
# Concurrency
# ------------------------------------------------------------------ #


class TestConcurrentWriters:
    def test_racing_writers_never_tear(self, tmp_path):
        _trace, encoded = _encode_full(2_000)
        sections = encoded.export_sections()
        path = tmp_path / "race.etr"
        barrier = threading.Barrier(4)
        failures = []

        def writer():
            barrier.wait()
            for _ in range(10):
                if not write_artifact(
                    path, encoded.name, encoded.instructions, sections
                ):
                    failures.append("write failed")
                artifact = load_artifact(path)
                if artifact is None:
                    failures.append("torn read")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        final = load_artifact(path)
        assert final is not None
        assert list(EncodedTrace.from_artifact(final).addrs) == list(encoded.addrs)
        # Every temp sibling was renamed or cleaned up.
        assert not list(tmp_path.glob(".tmp*"))


# ------------------------------------------------------------------ #
# numpy-absent loads of numpy-written artifacts
# ------------------------------------------------------------------ #


class TestNumpyAbsentLoad:
    def test_python_fallback_reads_numpy_written_artifact(self, monkeypatch):
        pytest.importorskip("numpy")
        config = SystemConfig()
        # Write the artifact through the vector tier (numpy hot path).
        baseline = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert runner.artifact_stats()["stores"] == 1
        # Reload it with numpy gone: the python kernels must restore
        # losslessly via array.array.frombytes.
        runner.clear_caches()
        runner.reset_artifact_stats()
        monkeypatch.setattr(vector_module, "np", None)
        fallback = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert fallback.to_flat() == baseline.to_flat()
        assert runner.artifact_stats()["loads"] == 1


# ------------------------------------------------------------------ #
# Runner policy: attach, publish, upgrade, disable
# ------------------------------------------------------------------ #


class TestRunnerPolicy:
    def test_cold_then_hot_byte_identical(self):
        config = SystemConfig()
        cold = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert runner.artifact_stats()["stores"] == 1
        runner.clear_caches()
        runner.reset_artifact_stats()
        hot = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert hot.to_flat() == cold.to_flat()
        stats = runner.artifact_stats()
        assert stats["loads"] == 1 and stats["stores"] == 0

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_ARTIFACTS", "1")
        config = SystemConfig()
        result = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert runner.artifact_dir() is None
        stats = runner.artifact_stats()
        assert stats == {"loads": 0, "stores": 0, "files": 0, "bytes": 0}
        monkeypatch.delenv("REPRO_NO_ARTIFACTS")
        runner.clear_caches()
        enabled = runner.run_benchmark(
            "gcc", config, 4_000, mode="missrate", backend="fast", use_cache=False
        )
        assert enabled.to_flat() == result.to_flat()

    def test_reference_tier_never_publishes(self):
        runner.run_benchmark(
            "gcc", SystemConfig(), 4_000, mode="missrate", backend="reference",
            use_cache=False,
        )
        assert runner.artifact_stats() == {
            "loads": 0, "stores": 0, "files": 0, "bytes": 0,
        }

    def test_sim_run_upgrades_missrate_artifact(self):
        config = SystemConfig()
        runner.run_benchmark(
            "gcc", config, 3_000, mode="missrate", backend="fast", use_cache=False
        )
        directory = runner.artifact_dir()
        (path,) = directory.glob("*.etr")
        assert not load_artifact(path).has("ops")
        runner.run_benchmark(
            "gcc", config, 3_000, mode="sim", backend="fast", use_cache=False
        )
        upgraded = load_artifact(path)
        assert upgraded is not None and upgraded.has("ops")
        # Third process life: the sim path restores instruction arrays
        # from the artifact without re-reading the source trace.
        runner.clear_caches()
        runner.reset_artifact_stats()
        trace = runner.get_trace("gcc", 3_000, 0)
        encoded = encode_trace(trace)
        assert encoded._artifact is not None
        encoded.ensure_instr_arrays(None)  # would crash if it read a trace
        assert len(encoded.ops) == 3_000

    def test_artifacts_hold_only_the_trace_streams(self, monkeypatch):
        """A miss-rate run publishes the memory-op stream and nothing
        derived.  An artifact that also carries a ``blocks:5`` decode,
        as older trees wrote them, loads and gives the same results on
        the python and numpy kernels, and the next sim-mode upgrade
        drops the section."""
        config = SystemConfig()
        fields = config.dcache.geometry().fields
        expected = runner.run_benchmark(
            "gcc", config, 3_000, mode="missrate", backend="reference",
            use_cache=False,
        ).to_flat()
        runner.run_benchmark(
            "gcc", config, 3_000, mode="missrate", backend="fast", use_cache=False
        )
        (path,) = runner.artifact_dir().glob("*.etr")
        published = load_artifact(path)
        assert set(published.section_names()) == {"addrs", "is_load"}
        sections = {
            name: (dtype, bytes(published.section(name)))
            for name, dtype in (("addrs", "Q"), ("is_load", "b"))
        }
        blocks = encode_trace(generate_trace("gcc", 3_000)).blocks(fields)
        sections[f"blocks:{fields.offset_bits}"] = ("Q", list_to_bytes(blocks, "Q"))
        assert write_artifact(path, published.name, published.instructions, sections)
        for hide_numpy in (True, False):
            _new_process()
            with monkeypatch.context() as patch:
                if hide_numpy:
                    patch.setattr(vector_module, "np", None)
                result = runner.run_benchmark(
                    "gcc", config, 3_000, mode="missrate", backend="fast",
                    use_cache=False,
                )
            assert result.to_flat() == expected, hide_numpy
            assert runner.artifact_stats()["loads"] == 1
            assert runner.artifact_stats()["stores"] == 0
        _new_process()
        runner.run_benchmark(
            "gcc", config, 3_000, mode="sim", backend="fast", use_cache=False
        )
        upgraded = load_artifact(path)
        assert set(upgraded.section_names()) == {"addrs", "is_load"} | {
            name for name, _dtype in INSTR_SECTIONS
        }

    def test_trace_ref_artifacts_key_on_content(self, tmp_path):
        trace_file = tmp_path / "w.csv"
        write_trace(trace_file, iter(generate_trace("gcc", 800)), "csv")
        ref = make_trace_ref(str(trace_file))
        config = SystemConfig()
        first = runner.run_benchmark(
            ref, config, 0, mode="missrate", backend="fast", use_cache=False
        )
        assert runner.artifact_stats()["stores"] == 1
        # Editing the file changes the fingerprint: a fresh key, never
        # the stale artifact.
        write_trace(trace_file, iter(generate_trace("swim", 800)), "csv")
        runner.clear_caches()
        runner.reset_artifact_stats()
        second = runner.run_benchmark(
            ref, config, 0, mode="missrate", backend="fast", use_cache=False
        )
        stats = runner.artifact_stats()
        assert stats["loads"] == 0 and stats["stores"] == 1
        assert second.to_flat() != first.to_flat()
        assert len(list(runner.artifact_dir().glob("*.etr"))) == 2

    def test_ensure_artifact_prewarms_for_workers(self):
        path = runner.ensure_artifact("gcc", 2_000, mode="sim")
        assert path is not None and path.exists()
        artifact = load_artifact(path)
        assert artifact.has("ops") and artifact.has("addrs")
        # Re-ensuring is O(1) and writes nothing new.
        runner.reset_artifact_stats()
        assert runner.ensure_artifact("gcc", 2_000, mode="sim") == path
        assert runner.artifact_stats()["stores"] == 0

    def test_ensure_artifact_disabled_returns_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_ARTIFACTS", "1")
        assert runner.ensure_artifact("gcc", 2_000) is None


# ------------------------------------------------------------------ #
# Lazy traces: an artifact that holds the answer skips generation
# ------------------------------------------------------------------ #


def _new_process():
    """Drop every in-process memo, as a fresh interpreter would."""
    runner.clear_caches()
    runner.reset_artifact_stats()


@pytest.fixture
def generations(monkeypatch):
    """Every ``generate_trace`` call the runner makes, as its arguments."""
    calls = []
    real = runner.generate_trace

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runner, "generate_trace", counting)
    return calls


def _flats(benchmark, instructions, backend):
    """``{mode: to_flat()}`` of uncached runs (``execute`` never publishes)."""
    return {
        mode: runner.execute(
            benchmark, SystemConfig(), instructions, 0, mode, backend
        ).to_flat()
        for mode in runner.RUN_MODES
    }


class TestLazyTraces:
    def test_full_artifact_answers_fast_tiers_without_generating(
        self, generations, monkeypatch
    ):
        runner.ensure_artifact("gcc", 3_000, mode="sim")
        expected = _flats("gcc", 3_000, "reference")
        _new_process()
        generations.clear()
        trace = runner.get_trace("gcc", 3_000, 0)
        assert isinstance(trace, LazyTrace)
        assert (trace.name, len(trace)) == ("gcc", 3_000)
        assert _flats("gcc", 3_000, "fast") == expected
        with monkeypatch.context() as patch:
            patch.setattr(vector_module, "np", None)  # the python kernels
            assert _flats("gcc", 3_000, "fast") == expected
        assert generations == []
        assert runner.artifact_stats()["loads"] == 1

    def test_reference_tier_generates_once_on_first_touch(self, generations, monkeypatch):
        runner.ensure_artifact("swim", 3_000, mode="sim")
        _new_process()
        generations.clear()
        trace = runner.get_trace("swim", 3_000, 0)
        assert isinstance(trace, LazyTrace) and generations == []
        lazy = _flats("swim", 3_000, "reference")
        assert generations == [("swim", 3_000, 0)]
        assert trace.instructions is trace.instructions  # built once, kept
        monkeypatch.setenv("REPRO_NO_ARTIFACTS", "1")
        _new_process()
        assert not isinstance(runner.get_trace("swim", 3_000, 0), LazyTrace)
        eager = _flats("swim", 3_000, "reference")
        assert json.dumps(lazy, sort_keys=True) == json.dumps(eager, sort_keys=True)

    def test_sim_over_mem_only_artifact_generates_once_and_upgrades(self, generations):
        path = runner.ensure_artifact("li", 3_000, mode="missrate")
        assert not load_artifact(path).has("ops")
        _new_process()
        generations.clear()
        first = runner.run_benchmark(
            "li", SystemConfig(), 3_000, mode="sim", backend="fast", use_cache=False
        )
        assert generations == [("li", 3_000, 0)]
        assert runner.artifact_stats()["stores"] == 1
        upgraded = load_artifact(path)
        assert upgraded is not None and upgraded.has("ops") and upgraded.has("addrs")
        # The next process finds every section it needs on disk.
        _new_process()
        generations.clear()
        again = runner.run_benchmark(
            "li", SystemConfig(), 3_000, mode="sim", backend="fast", use_cache=False
        )
        assert generations == [] and again.to_flat() == first.to_flat()

    @pytest.mark.parametrize("damage", ["truncate", "magic"])
    def test_corrupt_artifact_falls_back_to_eager_generation(self, generations, damage):
        path = runner.ensure_artifact("gcc", 3_000, mode="sim")
        expected = _flats("gcc", 3_000, "fast")
        data = path.read_bytes()
        path.write_bytes(
            data[: len(data) // 2] if damage == "truncate" else b"XXXX" + data[4:]
        )
        _new_process()
        generations.clear()
        trace = runner.get_trace("gcc", 3_000, 0)
        assert not isinstance(trace, LazyTrace)
        assert generations == [("gcc", 3_000, 0)]
        assert runner.artifact_stats()["loads"] == 0
        assert _flats("gcc", 3_000, "fast") == expected

    def test_warm_trace_ref_run_makes_no_pass_over_the_file(self, tmp_path):
        """The artifact header answers ``len()``: a warm miss-rate run
        opens the reader only for the load-time probe of the first
        instruction, where it used to re-parse the whole file."""
        opened = []
        read = []
        csv = formats_module.get_trace_format("csv")

        @register_trace_format("countedcsv")
        def read_counted(path):
            opened.append(path)
            for instr in csv.reader(path):
                read.append(1)
                yield instr

        try:
            path = tmp_path / "w.csv"
            write_trace(path, generate_trace("gcc", 2_000), "csv")
            ref = make_trace_ref(str(path), "countedcsv")
            cold = runner.run_benchmark(
                ref, SystemConfig(), 0, mode="missrate", backend="fast",
                use_cache=False,
            )
            assert runner.artifact_stats()["stores"] == 1
            _new_process()
            opened.clear()
            read.clear()
            warm = runner.execute(ref, SystemConfig(), 0, 0, "missrate", "fast")
            assert runner.artifact_stats()["loads"] == 1
            assert len(opened) == 1 and len(read) == 1
            assert warm.to_flat() == cold.to_flat()
            assert warm.core.instructions == 2_000
        finally:
            unregister_trace_format("countedcsv")


def _refuse_instr(*_fields):
    """Stands in for ``Instr`` where no object may be built."""
    raise AssertionError("built an Instr object")


class TestGeneratedColumns:
    @pytest.mark.parametrize("tier", ["fast", "vector"])
    def test_fast_tiers_never_build_instr_objects(self, tier, monkeypatch):
        """A sim point and a miss-rate point over a generated trace run
        on its columns, on either miss-rate kernel tier of ``fast``
        (``fast`` hides numpy, so the python kernels run); the
        reference tier then builds the ``Instr`` list once, from the
        same columns, with the same results."""
        monkeypatch.setenv("REPRO_NO_ARTIFACTS", "1")
        trace = runner.get_trace("gcc", 3_000, 0)
        assert isinstance(trace, ColumnTrace)
        with monkeypatch.context() as patch:
            patch.setattr(trace_module, "Instr", _refuse_instr)
            if tier == "fast":
                patch.setattr(vector_module, "np", None)
            fast = _flats("gcc", 3_000, "fast")
        assert runner.get_trace("gcc", 3_000, 0) is trace
        assert fast == _flats("gcc", 3_000, "reference")
        assert trace.instructions is trace.instructions
        assert [i.pc for i in trace] == trace.columns["pcs"]

    def test_sim_over_mem_only_artifact_adopts_generated_columns(self, monkeypatch):
        """The one generation a mem-only artifact costs a sim run builds
        columns only."""
        runner.ensure_artifact("li", 3_000, mode="missrate")
        expected = _flats("li", 3_000, "reference")
        _new_process()
        monkeypatch.setattr(trace_module, "Instr", _refuse_instr)
        assert _flats("li", 3_000, "fast") == expected


def test_import_leaves_service_stack_unloaded():
    """``import repro`` and the CLI never load the HTTP/SQLite service
    stack; the ``repro.api`` service re-exports still resolve on use."""
    code = (
        "import sys\n"
        "import repro, repro.api, repro.sim.runner, repro.cli\n"
        "heavy = ('repro.service', 'asyncio', 'sqlite3', 'http.client')\n"
        "print([name for name in heavy if name in sys.modules])\n"
        "from repro.api import ServiceClient, submit_and_wait\n"
        "print(ServiceClient.__module__, submit_and_wait.__module__)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(runner.__file__).resolve().parents[2])
    process = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    )
    assert process.stdout.splitlines() == [
        "[]", "repro.service.client repro.service.client",
    ]


# ------------------------------------------------------------------ #
# Trace-cache LRU bound
# ------------------------------------------------------------------ #


class TestTraceCacheLRU:
    def test_eviction_beyond_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        runner.get_trace("gcc", 1_000)
        runner.get_trace("swim", 1_000)
        runner.get_trace("li", 1_000)
        assert len(runner._TRACE_CACHE) == 2
        assert ("gcc", 1_000, 0) not in runner._TRACE_CACHE  # oldest evicted
        assert ("li", 1_000, 0) in runner._TRACE_CACHE

    def test_lru_order_tracks_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        gcc = runner.get_trace("gcc", 1_000)
        runner.get_trace("swim", 1_000)
        assert runner.get_trace("gcc", 1_000) is gcc  # touch: gcc now MRU
        runner.get_trace("li", 1_000)
        assert ("gcc", 1_000, 0) in runner._TRACE_CACHE
        assert ("swim", 1_000, 0) not in runner._TRACE_CACHE

    def test_eviction_is_correctness_neutral(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        config = SystemConfig()
        first = runner.run_benchmark(
            "gcc", config, 2_000, mode="missrate", backend="fast", use_cache=False
        )
        runner.run_benchmark(  # evicts gcc
            "swim", config, 2_000, mode="missrate", backend="fast", use_cache=False
        )
        again = runner.run_benchmark(
            "gcc", config, 2_000, mode="missrate", backend="fast", use_cache=False
        )
        assert again.to_flat() == first.to_flat()

    def test_capacity_floor_and_bad_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert runner.trace_cache_capacity() == 1
        monkeypatch.setenv("REPRO_TRACE_CACHE", "junk")
        with pytest.raises(ValueError, match="REPRO_TRACE_CACHE.*junk"):
            runner.trace_cache_capacity()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "-3")
        with pytest.raises(ValueError, match="REPRO_TRACE_CACHE"):
            runner.trace_cache_capacity()


# ------------------------------------------------------------------ #
# Stats surface
# ------------------------------------------------------------------ #


class TestArtifactStats:
    def test_counts_and_footprint(self):
        stats = runner.artifact_stats()
        assert stats == {"loads": 0, "stores": 0, "files": 0, "bytes": 0}
        runner.run_benchmark(
            "gcc", SystemConfig(), 2_000, mode="missrate", backend="fast",
            use_cache=False,
        )
        stats = runner.artifact_stats()
        assert stats["stores"] == 1 and stats["files"] == 1
        assert stats["bytes"] > 0

    def test_artifact_metadata_accessors(self, tmp_path):
        _trace, encoded = _encode_full(1_000)
        path = tmp_path / "meta.etr"
        write_artifact(
            path, encoded.name, encoded.instructions, encoded.export_sections()
        )
        artifact = load_artifact(path)
        assert isinstance(artifact, TraceArtifact)
        assert artifact.count("addrs") == len(encoded)
        # The trace's own streams only: the built block decode stays out.
        assert set(artifact.section_names()) == {"addrs", "is_load"} | {
            name for name, _dtype in INSTR_SECTIONS
        }

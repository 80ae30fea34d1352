"""Trace ingestion: format registry, streaming, caching, and equivalence.

Covers the external-workload subsystem end to end: the
``@register_trace_format`` registry and its error conventions, the
built-in Dinero/ChampSim/CSV readers and writers, bounded-memory
streaming (chunked encoding), ``trace://`` workload refs through the
runner and ``Machine``, disk-cache staleness on file edits, and the
byte-identical equivalence of streaming vs eager replay on both
backends — including the two committed sample traces under
``tests/data/``.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path

import pytest

from repro.api import Machine
from repro.fastsim.missrate import fast_miss_rate
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.simulator import Simulator
from repro.workload import (
    Instr,
    OP_BRANCH,
    OP_CALL,
    OP_INT,
    OP_LOAD,
    OP_RET,
    OP_STORE,
    StreamingTrace,
    Trace,
    TraceParseError,
    detect_trace_format,
    generate_trace,
    get_trace_format,
    is_trace_ref,
    load_trace,
    load_trace_ref,
    make_trace_ref,
    parse_trace_ref,
    register_trace_format,
    trace_fingerprint,
    trace_format_names,
    unregister_trace_format,
    write_trace,
)
from repro.workload.encode import encode_trace
from repro.workload.formats import trace_name, trace_ref_fingerprint
from repro.workload.trace import LazyTrace, summarize_instructions

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional test dep
    HAVE_HYPOTHESIS = False

DATA_DIR = Path(__file__).parent / "data"
SAMPLES = (DATA_DIR / "sample.din", DATA_DIR / "sample.csv.gz")


def instr_tuple(instr: Instr):
    return (instr.pc, instr.op, instr.dst, instr.src1, instr.src2,
            instr.addr, instr.taken, instr.target, instr.xor_handle)


@pytest.fixture(autouse=True)
def _isolated_caches(monkeypatch, tmp_path):
    """Every test gets empty in-process memos and a throwaway disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner.clear_caches()
    yield
    runner.clear_caches()


# ------------------------------------------------------------------ #
# Registry
# ------------------------------------------------------------------ #


class TestFormatRegistry:
    def test_builtins_registered(self):
        assert set(trace_format_names()) >= {"din", "champsim", "csv"}

    def test_unknown_format_names_valid_kinds(self):
        with pytest.raises(ValueError, match="registered formats"):
            get_trace_format("elf")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_trace_format("din")(lambda path: iter(()))

    def test_custom_format_plugs_into_load(self, tmp_path):
        @register_trace_format("hexline", extensions=(".hexline",))
        def read_hexline(path):
            with open(path) as handle:
                for line in handle:
                    yield Instr(pc=0x1000, op=OP_LOAD, dst=1, addr=int(line, 16))

        try:
            path = tmp_path / "t.hexline"
            path.write_text("20\n40\n60\n")
            trace = load_trace(path)  # detected by the registered extension
            assert [i.addr for i in trace] == [0x20, 0x40, 0x60]
            assert trace_fingerprint(path).endswith(":hexline.v1")
        finally:
            unregister_trace_format("hexline")
        with pytest.raises(ValueError, match="registered formats"):
            load_trace(path)

    def test_detection_by_extension(self):
        assert detect_trace_format("a.din").name == "din"
        assert detect_trace_format("a.champsim").name == "champsim"
        assert detect_trace_format("a.csv").name == "csv"
        assert detect_trace_format("a.csv.gz").name == "csv"
        assert detect_trace_format("A.DIN.GZ").name == "din"  # case + .gz strip

    def test_detection_failure_names_file_and_formats(self):
        with pytest.raises(ValueError, match=r"a\.bin.*registered formats"):
            detect_trace_format("a.bin")

    def test_trace_name_strips_suffixes(self):
        assert trace_name("dir/app.csv.gz") == "app"
        assert trace_name("app.din") == "app"
        assert trace_name("noext") == "noext"


# ------------------------------------------------------------------ #
# Built-in readers/writers
# ------------------------------------------------------------------ #


class TestDineroFormat:
    def test_labels_comments_and_pc_synthesis(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text(
            "# comment\n"
            "\n"
            "2 1000\n"      # ifetch: sets pc
            "0 2000\n"      # load
            "1 2010 4\n"    # store; trailing size field ignored
            "2 1008\n"
        )
        instrs = list(load_trace(path))
        assert [i.op for i in instrs] == [OP_INT, OP_LOAD, OP_STORE, OP_INT]
        assert instrs[0].pc == 0x1000
        assert instrs[1].pc == 0x1004 and instrs[1].addr == 0x2000
        assert instrs[1].xor_handle == 0x2000 >> 5  # exact block handle
        assert instrs[2].pc == 0x1008 and instrs[2].addr == 0x2010
        assert instrs[3].pc == 0x1008  # re-anchored by the second ifetch

    @pytest.mark.parametrize(
        "line, message",
        [
            ("7 1000", "unknown dinero record label"),
            ("0", "expected"),
            ("0 xyzzy", "invalid address"),
        ],
    )
    def test_corrupt_lines_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.din"
        path.write_text("2 1000\n" + line + "\n")
        with pytest.raises(TraceParseError, match=message) as excinfo:
            list(load_trace(path))
        assert "bad.din" in str(excinfo.value) and "line 2" in str(excinfo.value)

    def test_round_trip_preserves_address_stream(self, tmp_path):
        source = generate_trace("gcc", 400)
        path = tmp_path / "t.din"
        assert write_trace(path, source) == 400
        loaded = load_trace(path)
        got = [(i.op, i.addr) for i in loaded if i.op in (OP_LOAD, OP_STORE)]
        want = [(i.op, i.addr) for i in source if i.op in (OP_LOAD, OP_STORE)]
        assert got == want


class TestChampsimFormat:
    def test_all_kinds_parse(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_text(
            "# header\n"
            "0x400000 I\n"
            "0x400004 F\n"
            "0x400008 L 0x8000\n"
            "0x40000c S 32772\n"
            "0x400010 B 1 0x400100\n"
            "0x400100 C 1 0x401000\n"
            "0x401000 R 1 0x400104\n"
        )
        instrs = list(load_trace(path))
        assert [i.op for i in instrs] == [
            OP_INT, 1, OP_LOAD, OP_STORE, OP_BRANCH, OP_CALL, OP_RET
        ]
        assert instrs[2].addr == 0x8000 and instrs[2].xor_handle == 0x8000 >> 5
        assert instrs[3].addr == 32772
        assert instrs[4].taken and instrs[4].target == 0x400100
        assert instrs[6].op == OP_RET and instrs[6].target == 0x400104

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0x400000 Z", "unknown record kind"),
            ("0x400000 L", "needs a data address"),
            ("0x400000 B 1", "needs '<taken> <target>'"),
            ("0x400000", "expected"),
            ("zap L 0x10", "invalid pc"),
        ],
    )
    def test_corrupt_lines(self, tmp_path, line, message):
        path = tmp_path / "bad.champsim"
        path.write_text(line + "\n")
        with pytest.raises(TraceParseError, match=message):
            list(load_trace(path))

    def test_round_trip_preserves_control_flow(self, tmp_path):
        source = generate_trace("gcc", 400)
        path = tmp_path / "t.champsim"
        write_trace(path, source)
        loaded = list(load_trace(path))
        assert [(i.pc, i.op, i.taken, i.target) for i in loaded] == \
            [(i.pc, i.op, i.taken, i.target) for i in source]


class TestCsvFormat:
    def test_lossless_round_trip(self, tmp_path):
        source = generate_trace("go", 500)
        path = tmp_path / "t.csv.gz"
        assert write_trace(path, source) == 500
        loaded = load_trace(path)
        assert [instr_tuple(i) for i in loaded] == [instr_tuple(i) for i in source]

    def test_gzip_by_magic_bytes_not_extension(self, tmp_path):
        source = generate_trace("gcc", 50)
        gz = tmp_path / "t.csv.gz"
        write_trace(gz, source)
        plain_named = tmp_path / "t.csv"  # gzip payload behind a .csv name
        plain_named.write_bytes(gz.read_bytes())
        assert [instr_tuple(i) for i in load_trace(plain_named)] == \
            [instr_tuple(i) for i in source]

    def test_minimal_columns_and_synthetic_pcs(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("op,addr\nload,0x100\nstore,0x200\nint,\n")
        instrs = list(load_trace(path))
        assert [i.op for i in instrs] == [OP_LOAD, OP_STORE, OP_INT]
        assert instrs[1].pc == instrs[0].pc + 4  # synthetic 4-byte step
        assert instrs[0].xor_handle == 0x100 >> 5

    def test_missing_op_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("address\n0x100\n")
        with pytest.raises(TraceParseError, match="'op' column"):
            list(load_trace(path))

    def test_unknown_op_and_bad_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("op,addr\njump,0x100\n")
        with pytest.raises(TraceParseError, match="unknown op 'jump'"):
            list(load_trace(path))
        path.write_text("op,addr\nload,banana\n")
        with pytest.raises(TraceParseError, match="invalid address"):
            list(load_trace(path))

    def test_truncated_gzip_is_a_parse_error(self, tmp_path):
        good = tmp_path / "t.csv.gz"
        write_trace(good, generate_trace("gcc", 200))
        bad = tmp_path / "cut.csv.gz"
        bad.write_bytes(good.read_bytes()[:-20])  # drop the gzip trailer
        with pytest.raises(TraceParseError, match="cut.csv.gz"):
            list(load_trace(bad))


class TestWriteTrace:
    def test_writer_required(self, tmp_path):
        @register_trace_format("readonly", extensions=(".ro",))
        def read_ro(path):  # pragma: no cover - never called
            yield Instr(pc=0, op=OP_INT)

        try:
            with pytest.raises(ValueError, match="no writer"):
                write_trace(tmp_path / "t.ro", [])
        finally:
            unregister_trace_format("readonly")

    def test_explicit_format_overrides_extension(self, tmp_path):
        source = generate_trace("gcc", 60)
        path = tmp_path / "t.dat"
        write_trace(path, source, fmt="din")
        assert len(load_trace(path, fmt="din")) == 60

    @pytest.mark.parametrize("name", ["t.din.gz", "t.champsim.gz", "t.csv.gz"])
    def test_gz_destinations_really_gzip(self, tmp_path, name):
        path = tmp_path / name
        write_trace(path, generate_trace("gcc", 40))
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        assert len(load_trace(path)) == 40


# ------------------------------------------------------------------ #
# Loading and streaming
# ------------------------------------------------------------------ #


class TestLoadTrace:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceParseError, match="not found"):
            load_trace(tmp_path / "nope.din")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.din"
        path.write_text("# nothing but comments\n")
        with pytest.raises(TraceParseError, match="no instructions"):
            load_trace(path)

    def test_limit_and_name_override(self, tmp_path):
        path = tmp_path / "t.din"
        write_trace(path, generate_trace("gcc", 100))
        trace = load_trace(path, limit=40, name="gcc")
        assert trace.name == "gcc" and len(trace) == 40
        with pytest.raises(ValueError, match="limit"):
            load_trace(path, limit=0)

    def test_loads_a_streaming_trace(self, tmp_path):
        path = tmp_path / "t.din"
        write_trace(path, generate_trace("gcc", 50))
        trace = load_trace(path)
        assert isinstance(trace, StreamingTrace) and len(trace) == 50
        assert trace._materialized is None


def _rechunked(path: Path, chunk: int, name=None) -> StreamingTrace:
    """``load_trace(path)`` served in chunks of ``chunk`` instructions
    instead of the default chunk size."""
    loaded = load_trace(path, name=name)
    return StreamingTrace(loaded.name, loaded.__iter__, chunk_instructions=chunk)


class TestStreamingTrace:
    def _stream(self, n=100, chunk=16):
        def opener():
            return (Instr(pc=0x1000 + 4 * k, op=OP_INT, dst=1) for k in range(n))

        return StreamingTrace("synth", opener, chunk_instructions=chunk)

    def test_chunked_iteration(self):
        trace = self._stream(n=100, chunk=16)
        chunks = list(trace.iter_chunks())
        assert [len(c) for c in chunks] == [16] * 6 + [4]
        assert trace._length == 100  # memoized by the completed pass
        assert len(trace) == 100

    def test_len_without_materialization(self):
        trace = self._stream(n=100)
        assert len(trace) == 100
        assert trace._materialized is None

    def test_materialization_surface(self):
        trace = self._stream(n=10)
        assert trace[3].pc == 0x100c
        assert len(trace.instructions) == 10
        # materialized: chunk iteration now serves from the list
        assert [len(c) for c in trace.iter_chunks(4)] == [4, 4, 2]

    def test_summary_matches_eager(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        source = generate_trace("swim", 600)
        write_trace(path, source)
        streaming = _rechunked(path, 64)
        assert streaming.summary() == source.summary()
        assert streaming.summary(64) == source.summary(block_bytes=64)

    def test_chunk_validation(self):
        with pytest.raises(ValueError, match="chunk_instructions"):
            StreamingTrace("x", lambda: iter(()), chunk_instructions=0)
        with pytest.raises(ValueError, match="chunk_instructions"):
            list(self._stream().iter_chunks(0))
        with pytest.raises(ValueError, match="chunk_instructions"):
            list(Trace("x", []).iter_chunks(0))


class _TrackedInstr(Instr):
    """Weakref-able Instr so tests can observe object lifetimes."""

    __slots__ = ("__weakref__",)


class TestChunkedEncodingMemoryBound:
    """The acceptance property: encoding a streaming trace keeps the
    number of live Instr objects bounded by the chunk size, however
    long the trace is — only compact flat arrays grow with length."""

    def _peak_live_during_encode(self, n: int, chunk: int, build) -> int:
        """Peak live Instr objects while ``build(encoded, trace)`` runs
        the encoding pass over an ``n``-instruction streaming trace."""
        live = set()
        peak = 0

        def opener():
            nonlocal peak
            for k in range(n):
                op = OP_LOAD if k % 3 == 0 else (OP_STORE if k % 7 == 0 else OP_INT)
                instr = _TrackedInstr(
                    pc=0x1000 + 4 * k, op=op, dst=1, addr=(k * 64) & 0xFFFF
                )
                live.add(weakref.ref(instr, live.discard))
                peak = max(peak, len(live))
                yield instr

        trace = StreamingTrace("synth", opener, chunk_instructions=chunk)
        encoded = encode_trace(trace)
        build(encoded, trace)
        assert encoded.instructions == n
        assert len(encoded.addrs) == sum(1 for k in range(n) if k % 3 == 0 or k % 7 == 0)
        return peak

    def test_peak_live_instrs_independent_of_length(self):
        chunk = 256

        def build(encoded, trace):
            encoded.ensure_instr_arrays(trace)

        short_peak = self._peak_live_during_encode(2_000, chunk, build)
        long_peak = self._peak_live_during_encode(20_000, chunk, build)
        # Bounded by the chunk plus CPython-internal slack, and — the
        # actual property — NOT growing with a 10x longer trace.
        assert short_peak <= 2 * chunk
        assert long_peak <= 2 * chunk
        assert long_peak <= short_peak + chunk // 4

    def test_block_decode_preserves_streaming_bound(self):
        """The miss-rate path's block decode builds the memory-op stream
        straight from the chunked source, without the instruction
        arrays: peak live Instr stays chunk-bounded exactly as on the
        instruction path, and the raw buffer is the chunk-built array
        storage."""
        chunk, n = 256, 20_000
        fields = SystemConfig().dcache.geometry().fields
        addrs = [(k * 64) & 0xFFFF for k in range(n) if k % 3 == 0 or k % 7 == 0]

        def build(encoded, _trace):
            blocks = encoded.blocks(fields)  # triggers the chunked encode pass
            assert encoded.ops is None
            assert list(encoded.addrs) == addrs
            assert blocks == [a >> fields.offset_bits for a in addrs]
            assert encoded.buffer("addrs") is encoded.addrs

        assert self._peak_live_during_encode(n, chunk, build) <= 2 * chunk

    def test_each_simulation_path_parses_the_source_once(self):
        """Miss-rate (both backends) and fast full-sim each consume the
        streaming source exactly once — encode granularities share one
        pass instead of re-reading the file."""

        def counting_stream(n=800):
            opens = [0]

            def opener():
                opens[0] += 1
                return (
                    Instr(
                        pc=0x1000 + 4 * k,
                        op=OP_LOAD if k % 4 == 0 else OP_INT,
                        dst=1 + (k % 8),
                        addr=(k * 32) & 0xFFFF,
                        xor_handle=((k * 32) & 0xFFFF) >> 5,
                    )
                    for k in range(n)
                )

            return StreamingTrace("synth", opener, chunk_instructions=128), opens

        geometry = SystemConfig().dcache.geometry()
        trace, opens = counting_stream()
        fast_miss_rate(trace, geometry)
        assert opens[0] == 1

        trace, opens = counting_stream()
        measure_miss_rate(trace, geometry)
        assert opens[0] == 1

        trace, opens = counting_stream()
        result = Simulator(SystemConfig(), backend="fast").run(trace)
        assert opens[0] == 1
        assert result.core.instructions == 800

    def test_functional_paths_do_not_materialize(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        write_trace(path, generate_trace("gcc", 2_000))
        geometry = SystemConfig().dcache.geometry()
        streaming = _rechunked(path, 128)
        fast = fast_miss_rate(streaming, geometry)
        assert streaming._materialized is None  # chunk-wise encode only
        streaming2 = _rechunked(path, 128)
        reference = measure_miss_rate(streaming2, geometry)
        assert streaming2._materialized is None  # two-pass iteration only
        assert fast == reference


# ------------------------------------------------------------------ #
# trace:// refs, fingerprints, and the runner
# ------------------------------------------------------------------ #


class TestTraceRefs:
    def test_parse_and_make(self):
        assert parse_trace_ref("trace://a/b.din") == ("a/b.din", None)
        assert parse_trace_ref("trace://a/b.dat#csv") == ("a/b.dat", "csv")
        assert make_trace_ref("x.din") == "trace://x.din"
        assert make_trace_ref("x.dat", "din") == "trace://x.dat#din"
        assert is_trace_ref("trace://x.din") and not is_trace_ref("gcc")
        assert not is_trace_ref(42)

    @pytest.mark.parametrize("bad", ["gcc", "trace://", "trace://#csv"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_trace_ref(bad)

    def test_hash_in_filename_survives_round_trip(self, tmp_path):
        # '#' is legal in file names: only a bare-identifier fragment
        # (no '/' or '.') is treated as a format.
        assert parse_trace_ref("trace://run#1.din") == ("run#1.din", None)
        assert parse_trace_ref("trace://run#1.din#din") == ("run#1.din", "din")
        path = tmp_path / "run#1.din"
        write_trace(path, generate_trace("gcc", 30))
        assert len(load_trace_ref(make_trace_ref(path))) == 30
        assert len(load_trace_ref(make_trace_ref(path, "din"))) == 30

    def test_load_trace_ref(self, tmp_path):
        path = tmp_path / "t.din"
        write_trace(path, generate_trace("gcc", 80))
        assert len(load_trace_ref(f"trace://{path}")) == 80
        assert len(load_trace_ref(f"trace://{path}#din", limit=10)) == 10

    def test_unregistered_format_is_a_parse_error(self, tmp_path):
        """``#fmt`` naming no registered reader: TraceParseError (one
        line, ingest convention), not a bare KeyError/ValueError —
        regression for refs that named a real file but a bogus format.
        """
        path = tmp_path / "t.din"
        write_trace(path, generate_trace("gcc", 10))
        ref = f"trace://{path}#nosuch"
        for probe in (load_trace_ref, trace_ref_fingerprint):
            with pytest.raises(TraceParseError) as excinfo:
                probe(ref)
            message = str(excinfo.value)
            assert "nosuch" in message and "registered formats" in message
            assert str(path) in message

    def test_runner_surfaces_unregistered_format(self, tmp_path):
        path = tmp_path / "t.din"
        write_trace(path, generate_trace("gcc", 10))
        ref = f"trace://{path}#nosuch"
        with pytest.raises(TraceParseError, match="registered formats"):
            runner.workload_id(ref)
        with pytest.raises(TraceParseError, match="registered formats"):
            runner.get_trace(ref, 10)


class TestFingerprint:
    def test_tracks_content(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0 100\n")
        first = trace_fingerprint(path)
        assert first == trace_fingerprint(path)  # stable (and memoized)
        path.write_text("0 100\n1 200\n")
        assert trace_fingerprint(path) != first

    def test_includes_format_identity(self, tmp_path):
        path = tmp_path / "t.v"

        @register_trace_format("fmtv1", extensions=(".v",), version=1)
        def read_v1(p):  # pragma: no cover - never called
            yield Instr(pc=0, op=OP_INT)

        try:
            path.write_text("anything")
            v1 = trace_ref_fingerprint(f"trace://{path}#fmtv1")
            assert v1.endswith(":fmtv1.v1")
            unregister_trace_format("fmtv1")

            @register_trace_format("fmtv1", extensions=(".v",), version=2)
            def read_v2(p):  # pragma: no cover - never called
                yield Instr(pc=0, op=OP_INT)

            v2 = trace_ref_fingerprint(f"trace://{path}#fmtv1")
            assert v2.endswith(":fmtv1.v2") and v1 != v2
        finally:
            unregister_trace_format("fmtv1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceParseError, match="not found"):
            trace_fingerprint(tmp_path / "gone.din")


class TestRunnerIntegration:
    def _ref(self, tmp_path, benchmark="gcc", n=400) -> str:
        path = tmp_path / f"{benchmark}.csv.gz"
        write_trace(path, generate_trace(benchmark, n))
        return make_trace_ref(path)

    def test_get_trace_caps_and_memoizes(self, tmp_path):
        ref = self._ref(tmp_path, n=400)
        full = runner.get_trace(ref, 0)
        assert len(full) == 400
        assert runner.get_trace(ref, 0) is full  # memoized
        capped = runner.get_trace(ref, 100)
        assert len(capped) == 100
        over = runner.get_trace(ref, 10_000)
        assert len(over) == 400  # cap larger than the file: whole file

    def test_get_trace_reloads_after_edit(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0 100\n")
        ref = make_trace_ref(path)
        first = runner.get_trace(ref, 0)
        assert len(first) == 1
        path.write_text("0 100\n1 200\n0 300\n")
        second = runner.get_trace(ref, 0)
        assert second is not first and len(second) == 3

    def test_workload_id(self, tmp_path):
        assert runner.workload_id("gcc") == "gcc"
        ref = self._ref(tmp_path)
        assert runner.workload_id(ref).startswith(f"{ref}@sha256:")

    def test_missrate_modes_agree(self, tmp_path):
        ref = self._ref(tmp_path, n=600)
        config = SystemConfig()
        reference = runner.execute(ref, config, 0, mode="missrate")
        fast = runner.execute(ref, config, 0, mode="missrate", backend="fast")
        assert reference.to_flat() == fast.to_flat()
        assert reference.core.instructions == 600
        assert reference.benchmark == "gcc"  # file stem, not the ref

    def test_disk_cache_staleness_on_file_edit(self, tmp_path, monkeypatch):
        """Editing a trace file must re-execute, never serve stale results."""
        path = tmp_path / "w.din"
        write_trace(path, generate_trace("gcc", 300))
        ref = make_trace_ref(path)
        config = SystemConfig()

        executions = []
        real_execute = runner.execute

        def counting_execute(*args, **kwargs):
            executions.append(args[0])
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(runner, "execute", counting_execute)

        first = runner.run_benchmark(ref, config, 0, mode="missrate")
        again = runner.run_benchmark(ref, config, 0, mode="missrate")
        assert len(executions) == 1  # unchanged file: served from cache
        assert again.to_flat() == first.to_flat()

        # A cold process (fresh memos) still hits the *disk* cache.
        runner.clear_caches()
        cold = runner.run_benchmark(ref, config, 0, mode="missrate")
        assert len(executions) == 1
        assert cold.to_flat() == first.to_flat()

        # Mutate the file: both cache layers must miss.
        write_trace(path, generate_trace("swim", 300))
        edited = runner.run_benchmark(ref, config, 0, mode="missrate")
        assert len(executions) == 2
        assert edited.to_flat() != first.to_flat()

        # And the old result is not resurrected after another cold start.
        runner.clear_caches()
        assert runner.run_benchmark(ref, config, 0, mode="missrate").to_flat() \
            == edited.to_flat()
        assert len(executions) == 2

    def test_cache_key_raises_for_missing_trace(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            runner.cache_key(
                make_trace_ref(tmp_path / "gone.din"), SystemConfig(), 100
            )


class TestMachineFileTraces:
    def test_path_ref_and_name_runs_agree(self, tmp_path):
        source = generate_trace("gcc", 300)
        path = tmp_path / "gcc.csv.gz"
        write_trace(path, source)
        machine = Machine.from_config(dcache_policy="seldm_waypred")
        by_path = machine.run(path)
        by_ref = machine.run(make_trace_ref(path), use_cache=False)
        in_memory = machine.run(source)
        assert by_path.to_flat() == by_ref.to_flat() == in_memory.to_flat()

    def test_instructions_caps_file_replay(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(path, generate_trace("gcc", 300))
        machine = Machine()
        assert machine.run(path).core.instructions == 300
        assert machine.run(path, instructions=120).core.instructions == 120


# ------------------------------------------------------------------ #
# Streaming equivalence (property) and the committed samples
# ------------------------------------------------------------------ #


def _sim_flats(path: Path, name: str, backend: str):
    """to_flat() for streaming and eager replays of one file."""
    config = SystemConfig()
    traces = (_rechunked(path, 64, name), Trace(name, load_trace(path, name=name)))
    return [Simulator(config, backend=backend).run(trace).to_flat() for trace in traces]


def _runner_flats(benchmark: str, instructions: int, salt: int, artifacts: bool,
                  cache_dir: Path):
    """to_flat() of runner replays on both backends, each from a fresh
    trace memo: with ``artifacts`` a seeded artifact turns the trace
    into a lazy one, without it the trace is generated eagerly."""
    flats = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        if artifacts:
            runner.ensure_artifact(benchmark, instructions, salt, mode="sim")
        else:
            patch.setenv("REPRO_NO_ARTIFACTS", "1")
        for backend in ("reference", "fast"):
            runner.clear_caches()
            trace = runner.get_trace(benchmark, instructions, salt)
            assert isinstance(trace, LazyTrace) == artifacts
            flats.append(runner.execute(
                benchmark, SystemConfig(), instructions, salt, "sim", backend,
            ).to_flat())
        runner.clear_caches()
    return flats


if HAVE_HYPOTHESIS:

    @settings(max_examples=5, deadline=None)
    @given(
        benchmark=st.sampled_from(["gcc", "swim", "go"]),
        instructions=st.integers(min_value=150, max_value=400),
        salt=st.integers(min_value=0, max_value=3),
        artifacts=st.booleans(),
    )
    def test_streaming_replay_byte_identical_property(
        benchmark, instructions, salt, artifacts, tmp_path_factory
    ):
        """StreamingTrace replay == eager replay == in-memory trace ==
        runner replay with artifacts on (lazy trace) or off, byte-for-
        byte on both backends, for arbitrary written traces."""
        tmp_path = tmp_path_factory.mktemp("stream-eq")
        source = generate_trace(benchmark, instructions, salt)
        path = tmp_path / f"{benchmark}.csv.gz"
        write_trace(path, source)
        baseline = Simulator(SystemConfig()).run(source).to_flat()
        for backend in ("reference", "fast"):
            streaming_flat, eager_flat = _sim_flats(path, benchmark, backend)
            assert streaming_flat == eager_flat == baseline
        flats = _runner_flats(benchmark, instructions, salt, artifacts,
                              tmp_path / "cache")
        assert flats == [baseline, baseline]


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.name)
def test_samples_run_end_to_end_byte_identical(sample):
    """Acceptance: each committed sample runs on both backends with
    byte-identical SimResult.to_flat(), streaming or eager."""
    reference = _sim_flats(sample, "sample", "reference")
    fast = _sim_flats(sample, "sample", "fast")
    assert reference[0] == reference[1] == fast[0] == fast[1]
    assert reference[0]["core_instructions"] == 160

    geometry = SystemConfig().dcache.geometry()
    slow = measure_miss_rate(load_trace(sample), geometry)
    quick = fast_miss_rate(load_trace(sample), geometry)
    assert slow == quick and slow.accesses > 0


def test_samples_summarize(tmp_path):
    din = load_trace(SAMPLES[0]).summary()
    csv = load_trace(SAMPLES[1]).summary()
    assert din.instructions == csv.instructions == 160
    assert din.loads > 0 and din.stores > 0
    assert csv.branches > 0  # CSV keeps control flow; dinero flattens it


# ------------------------------------------------------------------ #
# Satellite: block-size-parameterized summaries
# ------------------------------------------------------------------ #


class TestSummaryBlockSize:
    def test_unique_blocks_follow_block_size(self):
        # PCs at 0, 32, 64: three 32B blocks, two 64B blocks, one 128B.
        instrs = [Instr(pc=pc, op=OP_INT) for pc in (0, 32, 64)]
        trace = Trace("t", instrs)
        assert trace.summary().unique_blocks_touched == 3  # default 32B
        assert trace.summary(block_bytes=32).unique_blocks_touched == 3
        assert trace.summary(block_bytes=64).unique_blocks_touched == 2
        assert trace.summary(block_bytes=128).unique_blocks_touched == 1

    def test_regression_not_hardcoded_to_shift_5(self):
        """The historical bug: ``instr.pc >> 5`` regardless of geometry."""
        instrs = [Instr(pc=pc, op=OP_INT) for pc in range(0, 1024, 16)]
        trace = Trace("t", instrs)
        for block_bytes in (16, 32, 64, 256):
            expected = len({pc >> block_bytes.bit_length() - 1
                            for pc in range(0, 1024, 16)})
            got = trace.summary(block_bytes=block_bytes).unique_blocks_touched
            assert got == expected == 1024 // block_bytes

    @pytest.mark.parametrize("bad", [0, -32, 3, 48])
    def test_invalid_block_size_rejected(self, bad):
        trace = Trace("t", [Instr(pc=0, op=OP_INT)])
        with pytest.raises(ValueError, match="power of two"):
            trace.summary(block_bytes=bad)

    def test_other_fields_unaffected(self):
        trace = generate_trace("gcc", 2_000)
        small, big = trace.summary(block_bytes=16), trace.summary(block_bytes=512)
        for field in ("instructions", "loads", "stores", "branches", "calls",
                      "returns", "int_ops", "fp_ops", "unique_load_pcs"):
            assert getattr(small, field) == getattr(big, field)
        assert small.unique_blocks_touched >= big.unique_blocks_touched

    def test_summarize_instructions_consumes_any_iterable(self):
        instrs = (Instr(pc=4 * k, op=OP_LOAD, addr=64 * k) for k in range(10))
        summary = summarize_instructions(instrs, block_bytes=16)
        assert summary.instructions == 10 and summary.loads == 10
        assert summary.unique_blocks_touched == 3  # pcs 0..36 in 16B blocks


# ------------------------------------------------------------------ #
# External-trace experiment
# ------------------------------------------------------------------ #


class TestExternalExperiment:
    def _populate(self, tmp_path) -> Path:
        directory = tmp_path / "traces"
        directory.mkdir()
        write_trace(directory / "alpha.din", generate_trace("gcc", 200))
        write_trace(directory / "beta.csv.gz", generate_trace("swim", 200))
        (directory / "notes.txt").write_text("not a trace\n")
        return directory

    def test_discover_skips_unrecognized(self, tmp_path):
        from repro.experiments import external

        directory = self._populate(tmp_path)
        refs = external.discover_traces(directory)
        assert [Path(parse_trace_ref(ref)[0]).name for ref in refs] == \
            ["alpha.din", "beta.csv.gz"]
        assert all(is_trace_ref(ref) for ref in refs)

    def test_discover_errors(self, tmp_path):
        from repro.experiments import external

        with pytest.raises(ValueError, match="not found"):
            external.discover_traces(tmp_path / "missing")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="registered formats"):
            external.discover_traces(empty)

    def test_render_backend_identical(self, tmp_path):
        from repro.experiments import external
        from repro.experiments.common import ExperimentSettings

        directory = self._populate(tmp_path)
        reports = {}
        for backend in ("reference", "fast"):
            settings = ExperimentSettings(instructions=200, backend=backend)
            reports[backend] = external.render(directory, settings)
        assert reports["reference"] == reports["fast"]
        assert "alpha" in reports["reference"] and "beta" in reports["reference"]
        rows = external.external_rows(
            directory, ExperimentSettings(instructions=200)
        )
        assert [row.trace for row in rows] == ["alpha", "beta"]
        assert all(row.instructions == 200 for row in rows)
        document = json.dumps([row.__dict__ for row in rows])
        assert "alpha.din" in document


class TestNumberParsing:
    def test_zero_padded_decimal_accepted(self, tmp_path):
        champsim = tmp_path / "t.champsim"
        champsim.write_text("0010 L 0020\n0x20 I\n")
        instrs = list(load_trace(champsim))
        assert instrs[0].pc == 10 and instrs[0].addr == 20
        csv = tmp_path / "t.csv"
        csv.write_text("op,pc,addr\nload,0010,0020\n")
        loaded = list(load_trace(csv))
        assert loaded[0].pc == 10 and loaded[0].addr == 20


class TestFullAddressSpace:
    def test_kernel_space_addresses_replay_on_both_backends(self, tmp_path):
        """Addresses >= 2**63 (kernel-space in real dumps) must work in
        both miss-rate paths, not overflow the encoder arrays."""
        path = tmp_path / "k.din"
        lines = [f"0 {0xFFFF_8800_0000_0000 + 32 * k:x}" for k in range(64)]
        path.write_text("\n".join(lines) + "\n")
        geometry = SystemConfig().dcache.geometry()
        reference = measure_miss_rate(load_trace(path), geometry)
        fast = fast_miss_rate(load_trace(path), geometry)
        assert reference == fast and reference.accesses > 0

    @pytest.mark.parametrize(
        "name, content",
        [
            ("t.din", f"0 {1 << 64:x}\n"),
            ("t.champsim", f"0x1000 L {1 << 64:#x}\n"),
            ("t.csv", f"op,addr\nload,{1 << 64:#x}\n"),
            ("t2.csv", "op,addr\nload,-5\n"),
        ],
    )
    def test_out_of_range_addresses_fail_at_parse(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(TraceParseError, match="64-bit address space"):
            list(load_trace(path))


def test_measure_miss_rate_memoizes_buffers():
    trace = generate_trace("gcc", 1_000)
    geometry = SystemConfig().dcache.geometry()
    first = measure_miss_rate(trace, geometry)
    memo = getattr(trace, "_functional_mem_ops")
    assert measure_miss_rate(trace, geometry) == first
    assert getattr(trace, "_functional_mem_ops") is memo  # reused, not rebuilt


def test_corrupt_gzip_body_is_a_parse_error(tmp_path):
    """An intact gzip header with a mangled deflate body (zlib.error,
    not EOFError) must fold into TraceParseError, not a traceback."""
    import gzip

    payload = bytearray(gzip.compress(b"op,addr\n" + b"load,0x100\n" * 500))
    payload[12:16] = b"\xde\xad\xbe\xef"  # corrupt the deflate stream
    bad = tmp_path / "bad.csv.gz"
    bad.write_bytes(bytes(payload))
    with pytest.raises(TraceParseError, match="bad.csv.gz"):
        list(load_trace(bad))


class TestAtomicWrites:
    def test_convert_onto_itself_is_safe(self, tmp_path):
        """write_trace writes a temp sibling and renames, so converting
        a trace onto its own path streams correctly (historical bug:
        the destination was truncated before the source was read)."""
        path = tmp_path / "self.csv"
        source = generate_trace("gcc", 250)
        write_trace(path, source)
        before = [instr_tuple(i) for i in load_trace(path)]
        written = write_trace(path, iter(load_trace(path)))
        assert written == 250
        assert [instr_tuple(i) for i in load_trace(path)] == before

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        def exploding():
            yield Instr(pc=0, op=OP_INT)
            raise RuntimeError("source went away")

        dst = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            write_trace(dst, exploding())
        assert not dst.exists()
        assert list(tmp_path.iterdir()) == []  # temp cleaned up too

    def test_failed_write_preserves_existing_destination(self, tmp_path):
        dst = tmp_path / "keep.din"
        write_trace(dst, generate_trace("gcc", 50))
        before = dst.read_bytes()

        def exploding():
            raise TraceParseError("boom")
            yield  # pragma: no cover

        with pytest.raises(TraceParseError):
            write_trace(dst, exploding())
        assert dst.read_bytes() == before


def test_oversized_csv_field_is_a_parse_error(tmp_path):
    """csv.Error (e.g. a mangled line beyond the field-size limit) folds
    into TraceParseError instead of escaping as a raw exception."""
    bad = tmp_path / "bad.csv"
    bad.write_text('op,addr\n"' + "x" * 140_000 + '\n')
    with pytest.raises(TraceParseError, match="bad.csv"):
        list(load_trace(bad))

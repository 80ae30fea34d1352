"""Workload generation: determinism, coherence, and stream behaviour."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import DeterministicRng
from repro.workload.generator import TraceGenerator, generate_trace
from repro.workload.instr import OP_LOAD, OP_STORE
from repro.workload.profiles import BENCHMARKS, benchmark_names, get_profile
from repro.workload.streams import (
    ChaseStream,
    ConflictStream,
    HotDataLayout,
    ObjectPoolStream,
    ScalarStream,
    WalkStream,
)


class TestProfiles:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARKS) == 11
        assert len(benchmark_names()) == 11

    def test_suites_partition(self):
        assert set(benchmark_names("int")) | set(benchmark_names("fp")) == set(
            benchmark_names()
        )
        assert not set(benchmark_names("int")) & set(benchmark_names("fp"))

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            get_profile("specjbb")

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            benchmark_names("vector")

    def test_paper_targets_recorded(self):
        for profile in BENCHMARKS.values():
            assert profile.paper_dm_miss_pct > 0
            assert profile.paper_sa4_miss_pct > 0


class TestDeterminism:
    def test_same_trace_twice(self):
        a = generate_trace("gcc", 3000)
        b = generate_trace("gcc", 3000)
        assert [i.pc for i in a] == [i.pc for i in b]
        assert [i.addr for i in a] == [i.addr for i in b]

    def test_salt_changes_trace(self):
        a = generate_trace("gcc", 3000, salt=0)
        b = generate_trace("gcc", 3000, salt=1)
        assert [i.addr for i in a] != [i.addr for i in b]

    def test_benchmarks_differ(self):
        a = generate_trace("gcc", 3000)
        b = generate_trace("go", 3000)
        assert [i.pc for i in a] != [i.pc for i in b]


#: The nine per-instruction columns, in ``EncodedTrace`` attribute order.
_COLUMNS = ("ops", "pcs", "dsts", "src1s", "src2s", "daddrs", "takens", "targets", "xors")


def _columns(trace):
    """The trace's nine per-instruction columns, as its encoding holds them."""
    from repro.workload.encode import encode_trace

    encoded = encode_trace(trace)
    encoded.ensure_instr_arrays(trace)
    return [getattr(encoded, name) for name in _COLUMNS]


#: First 16 hex digits of the sha256 of each generated trace's columns,
#: per application at (length, salt) = (1, 0), (1, 3), (999, 0),
#: (999, 3), (12_000, 0), (12_000, 3).
_GENERATED_DIGESTS = {
    "applu": ("41cbd067f099fc93", "3efa4fb1e9c15b7d", "7aa0c5ca30402d12",
              "2206d97d01efc444", "23c787423fe9ec64", "6262b7015f212a62"),
    "fpppp": ("a06df20bcedda2a7", "a21842e251b6490c", "b80718b82d976451",
              "bea007a38bdd35b6", "6b7915602eaf079e", "c1f7e33388bd17ec"),
    "mgrid": ("fc750e2228de79e0", "4b84ac05f45abae1", "1d3ad946bff57eca",
              "02dcef49101f08b3", "8239382dd26a2bf5", "f990f50976c1c9d7"),
    "swim": ("4b84ac05f45abae1", "aed63740181a1ea0", "2cac7452fc9c895c",
             "4a483ec4b14e4d8c", "01022e53bc21c86a", "6759e97961bde84a"),
    "gcc": ("0e777c7d0bf20115", "dbc5a24de0718fcb", "335ae41e0a97f52d",
            "84f0b77a9dc4484c", "19ce3de85433c898", "b8fd7339b4724af7"),
    "go": ("a21842e251b6490c", "73d649b4ca47e520", "a9636d50f73cf887",
           "3ef463c98aecf74a", "e3ea2b7a079dc1f8", "9bdb743509c68145"),
    "li": ("90e1fafc08d95d93", "526cfe29d86d4383", "6fdac64c63d9dc56",
           "844511ca632fd829", "0a22e53f0e16a3c9", "36602544de508cf5"),
    "m88ksim": ("64f8d9caccb76bd5", "3f9c23a49b38ed86", "d3cf6e07a8e918d1",
                "b45ae155e1fbe643", "d3e49f8acdfcba40", "38efc0411a2a61b6"),
    "perl": ("0e777c7d0bf20115", "fbb27d22c9aba264", "7931ed0662dbb2da",
             "b5bb25abb993f614", "60cf716ffa39c43e", "27bffff89d731cb1"),
    "troff": ("6b72cdedbe75009f", "6031372616254747", "38c00899d2e737c9",
              "190de9542792b88e", "febe4a9a1f016a9e", "f3a6d1deae550fde"),
    "vortex": ("0e777c7d0bf20115", "0e777c7d0bf20115", "6c385a05e073fcb9",
               "90ec6e677d53516c", "0c4c71230084e47e", "f20af00074844607"),
}


@pytest.mark.parametrize("bench", sorted(_GENERATED_DIGESTS))
def test_generated_trace_digests(bench):
    """Generated traces are pinned column for column.

    The digests hash ``repr`` of each column, so value *types* count too
    (``takens`` must stay genuine bools).  They also guard every
    ``random.Random`` draw the generator makes on each supported Python.
    A deliberate change to generation regenerates this table together
    with the goldens and bumps ``GENERATOR_VERSION``.
    """
    digests = []
    for length in (1, 999, 12_000):
        for salt in (0, 3):
            trace = generate_trace(bench, length, salt)
            columns = _columns(trace)
            digest = hashlib.sha256()
            for column in columns:
                digest.update(repr(column).encode("ascii"))
            digests.append(digest.hexdigest()[:16])
            if length == 999:
                # The objects an Instr consumer sees carry the same fields.
                fields = [
                    (i.op, i.pc, i.dst, i.src1, i.src2, i.addr, i.taken, i.target,
                     i.xor_handle)
                    for i in trace
                ]
                assert fields == list(zip(*columns))
    assert tuple(digests) == _GENERATED_DIGESTS[bench]


@settings(max_examples=25)
@given(
    bench=st.sampled_from(sorted(BENCHMARKS)),
    length=st.integers(min_value=400, max_value=2_500),
    salt=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_shorter_trace_is_a_prefix_of_a_longer_one(bench, length, salt, data):
    """``generate_trace(b, n, s)`` is the first ``n`` instructions of
    ``generate_trace(b, m, s)`` for every ``n < m``.

    Besides a drawn cut, every example cuts right after the first taken
    terminator (whose target comes from a block the shorter trace never
    emits) and at the first cut inside a block.
    """
    generator = TraceGenerator(get_profile(bench), salt)
    starts = {block.start_pc for func in generator.layout.functions for block in func.blocks}
    longer = _columns(generator.generate(length))
    takens, pcs = longer[_COLUMNS.index("takens")], longer[_COLUMNS.index("pcs")]
    after_taken = next(n for n in range(1, length) if takens[n - 1])
    mid_block = next(n for n in range(1, length) if pcs[n] not in starts)
    drawn = data.draw(st.integers(min_value=1, max_value=length - 1), label="cut")
    for cut in sorted({after_taken, mid_block, drawn}):
        shorter = _columns(generate_trace(bench, cut, salt))
        for name, column, prefix in zip(_COLUMNS, shorter, longer):
            assert column == prefix[:cut], (cut, name)


class TestTraceCoherence:
    @pytest.mark.parametrize("bench", ["gcc", "mgrid", "fpppp"])
    def test_control_flow_coherent(self, bench):
        """Taken targets match the next PC; fallthroughs are sequential."""
        trace = generate_trace(bench, 8000)
        instrs = trace.instructions
        for i in range(len(instrs) - 1):
            current, following = instrs[i], instrs[i + 1]
            if current.is_control:
                if current.taken:
                    assert following.pc == current.target
                else:
                    assert following.pc == current.pc + 4
            else:
                assert following.pc == current.pc + 4

    def test_exact_length(self):
        assert len(generate_trace("li", 5001)) == 5001

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_trace("li", 0)

    def test_loads_have_handles_and_dests(self):
        trace = generate_trace("gcc", 5000)
        for instr in trace:
            if instr.op == OP_LOAD:
                assert instr.dst >= 0
                assert instr.addr > 0
            if instr.op == OP_STORE:
                assert instr.dst == -1

    def test_summary_consistent(self):
        trace = generate_trace("gcc", 5000)
        summary = trace.summary()
        assert summary.instructions == 5000
        assert summary.loads + summary.stores + summary.branches + summary.calls + \
            summary.returns + summary.int_ops + summary.fp_ops == 5000

    def test_calls_and_returns_present(self):
        summary = generate_trace("gcc", 20_000).summary()
        assert summary.calls > 0
        assert summary.returns > 0

    def test_fp_profile_has_fp_ops(self):
        summary = generate_trace("mgrid", 10_000).summary()
        assert summary.fp_ops > summary.instructions * 0.2


class TestStreams:
    def test_scalar_stays_in_block(self):
        rng = DeterministicRng("t")
        stream = ScalarStream(0x1000)
        for _ in range(50):
            assert stream.next_address(rng) >> 5 == 0x1000 >> 5

    def test_walk_is_sequential_and_wraps(self):
        rng = DeterministicRng("t")
        stream = WalkStream(0x1000, 64, stride=8)
        addrs = [stream.next_address(rng) for _ in range(9)]
        assert addrs[:8] == [0x1000 + 8 * i for i in range(8)]
        assert addrs[8] == 0x1000  # wrapped

    def test_walk_rejects_short(self):
        with pytest.raises(ValueError):
            WalkStream(0, 4, stride=8)

    def test_conflict_members_share_position(self):
        stream = ConflictStream(5, [100, 200, 300])
        positions = {(a >> 5) & 0x1FF for a in stream.addresses}
        assert positions == {5}
        tags = {(a >> 5) >> 9 for a in stream.addresses}
        assert len(tags) == 3

    def test_conflict_runs(self):
        rng = DeterministicRng("t")
        stream = ConflictStream(5, [100, 200], run_length=50)
        blocks = [stream.next_address(rng) >> 5 for _ in range(40)]
        assert len(set(blocks)) == 1  # still inside the first run

    def test_conflict_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ConflictStream(5, [100])
        with pytest.raises(ValueError):
            ConflictStream(5, [100, 100])
        with pytest.raises(ValueError):
            ConflictStream(5, [100, 200], run_length=0)

    def test_pool_varies_blocks(self):
        rng = DeterministicRng("t")
        stream = ObjectPoolStream([0x1000, 0x2000, 0x3000])
        blocks = {stream.next_address(rng) >> 5 for _ in range(100)}
        assert len(blocks) == 3

    def test_chase_in_region(self):
        rng = DeterministicRng("t")
        stream = ChaseStream(0x1000, 1024)
        for _ in range(100):
            addr = stream.next_address(rng)
            assert 0x1000 <= addr < 0x1000 + 1024


class TestHotDataLayout:
    def test_positions_unique(self):
        layout = HotDataLayout(DeterministicRng("t"))
        layout.take_chunk(16)
        blocks = [layout.take_block() for _ in range(100)]
        positions = {(b >> 5) & 0x1FF for b in blocks}
        assert len(positions) == 100  # all distinct
        assert all(p >= 16 for p in positions)  # chunk positions reserved

    def test_exhaustion_raises(self):
        layout = HotDataLayout(DeterministicRng("t"))
        with pytest.raises(RuntimeError):
            for _ in range(600):
                layout.take_block()

    def test_tags_vary(self):
        layout = HotDataLayout(DeterministicRng("t"))
        blocks = [layout.take_block() for _ in range(32)]
        tags = {(b >> 5) >> 9 for b in blocks}
        assert len(tags) > 1


class TestGeneratorInternals:
    def test_stream_pool_matches_counts(self):
        generator = TraceGenerator(get_profile("gcc"))
        profile = generator.profile
        expected = (
            profile.num_scalars + profile.num_pools + profile.num_walks
            + profile.num_conflict_groups + profile.num_chases
        )
        assert len(generator.streams) == expected

    def test_all_memory_sites_bound(self):
        generator = TraceGenerator(get_profile("gcc"))
        from repro.workload.codegen import SLOT_LOAD, SLOT_STORE

        for func in generator.layout.functions:
            for block in func.blocks:
                for slot, stream_id in zip(block.slots, block.stream_ids):
                    if slot in (SLOT_LOAD, SLOT_STORE):
                        assert 0 <= stream_id < len(generator.streams)

"""Workload generation: determinism, coherence, and stream behaviour."""

import pytest

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
        chunk = layout.take_chunk(16)
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

"""Code-layout and control-flow-walker tests."""

import pytest

from repro.utils.rng import DeterministicRng
from repro.workload.codegen import (
    CODE_BASE,
    INSTR_BYTES,
    ControlFlowWalker,
    TERM_CALL,
    TERM_LOOP,
    TERM_RET,
    measure_block_weights,
)
from repro.workload.generator import TraceGenerator
from repro.workload.profiles import benchmark_names, get_profile


def small_layout(seed="layout-test"):
    generator = TraceGenerator(get_profile("gcc"))
    return generator.layout


class TestLayoutStructure:
    def setup_method(self):
        self.layout = small_layout()

    def test_functions_contiguous(self):
        previous_end = CODE_BASE
        for func in self.layout.functions:
            assert func.entry_pc == previous_end
            previous_end = func.blocks[-1].term_pc + INSTR_BYTES
        assert previous_end == CODE_BASE + self.layout.code_bytes

    def test_blocks_contiguous_within_function(self):
        for func in self.layout.functions:
            for earlier, later in zip(func.blocks, func.blocks[1:]):
                assert later.start_pc == earlier.term_pc + INSTR_BYTES

    def test_every_function_returns(self):
        for func in self.layout.functions:
            assert func.blocks[-1].term_kind == TERM_RET

    def test_loop_targets_point_backward(self):
        for func in self.layout.functions:
            for block in func.blocks:
                if block.term_kind == TERM_LOOP:
                    assert block.term_target_pc <= block.start_pc

    def test_callees_valid(self):
        count = len(self.layout.functions)
        for func in self.layout.functions:
            for block in func.blocks:
                if block.term_kind == TERM_CALL:
                    assert 0 < block.callee < count

    def test_code_kb_positive(self):
        assert self.layout.code_bytes / 1024 > 1.0

    def test_slots_and_streams_aligned(self):
        for func in self.layout.functions:
            for block in func.blocks:
                assert len(block.slots) == len(block.stream_ids)


class TestWalker:
    def test_walk_yields_valid_blocks(self):
        layout = small_layout()
        walker = ControlFlowWalker(layout, DeterministicRng("walk-test"))
        all_blocks = {
            block.start_pc for func in layout.functions for block in func.blocks
        }
        for _ in range(2000):
            block, taken, _aux = walker.next_block()
            assert block.start_pc in all_blocks
            assert isinstance(taken, bool)

    def test_walk_restarts_program(self):
        """The walker never exhausts: after main returns it restarts."""
        layout = small_layout()
        walker = ControlFlowWalker(layout, DeterministicRng("walk-test"))
        entries = 0
        main_entry = layout.functions[0].entry_pc
        for _ in range(20_000):
            block, _, _ = walker.next_block()
            if block.start_pc == main_entry:
                entries += 1
        assert entries >= 1

    def test_measured_weights_cover_hot_blocks(self):
        layout = small_layout()
        weights = measure_block_weights(layout, DeterministicRng("probe-test"), 5000)
        assert sum(weights.values()) == 5000
        assert max(weights.values()) > 1  # something is hot


def per_block_weights(layout, rng, probe_blocks):
    """The reference probe: one ``next_block()`` call per block."""
    walker = ControlFlowWalker(layout, rng)
    counts = {}
    for _ in range(probe_blocks):
        block, _, _ = walker.next_block()
        counts[block.start_pc] = counts.get(block.start_pc, 0) + 1
    return counts


@pytest.mark.parametrize("bench", benchmark_names())
def test_segment_probe_matches_per_block_walk(bench):
    """Stepping loops whole gives the per-block counts, also when the
    budget ends mid-loop (most of these budgets do)."""
    layout = TraceGenerator(get_profile(bench)).layout
    for budget in (1, 137, 5_000, 25_000):
        expected = per_block_weights(layout, DeterministicRng("probe-eq"), budget)
        measured = measure_block_weights(layout, DeterministicRng("probe-eq"), budget)
        assert measured == expected, budget


@pytest.mark.parametrize("bench", ["applu", "gcc", "troff"])
def test_run_loop_leaves_the_walker_where_next_block_would(bench):
    """After any ``run_loop(budget)`` (whole, or cut mid-trip), the walk
    continues exactly as it would after that many ``next_block()`` calls."""
    layout = TraceGenerator(get_profile(bench)).layout
    stepped = ControlFlowWalker(layout, DeterministicRng("run-loop"))
    reference = ControlFlowWalker(layout, DeterministicRng("run-loop"))
    loops = 0
    for step in range(3_000):
        loop = stepped.run_loop(1 + step % 9)
        loops += bool(loop)
        visited = {}
        for _ in range(sum(visits for _, visits in loop)):
            pc = reference.next_block()[0].start_pc
            visited[pc] = visited.get(pc, 0) + 1
        assert visited == {block.start_pc: visits for block, visits in loop if visits}
        assert stepped.next_block() == reference.next_block()
    assert loops > 100

"""Differential property suite: fast backend == reference engine.

The fast backend's correctness contract is byte-identical results.
These properties drive Hypothesis-generated traces through both
backends — every d-cache policy kind and every i-cache policy kind in
the registry — and assert ``SimResult.to_flat()`` equality field for
field (integer counters, access-kind breakdowns, and energy floats
alike), plus :class:`MissRateResult` equality for the functional path
across associativities and the warmup-fraction edges.  Degenerate
streams (empty, no memory ops, one access) must give identical
miss-rate flats on both backends through the runner.

Full-sim mode is covered on both pipeline implementations: the fast
backend runs the batched core/fetch pair (:mod:`repro.fastsim.core`,
:mod:`repro.fastsim.fetch`), so every property here also pins the
cycle-exactness of the array-state scheduler, including under starved
core shapes (tiny ROB/LSQ, single-issue, one d-cache port) and down to
``CoreStats`` fields that never reach a ``SimResult``.

The Hypothesis profile is pinned deterministic in ``conftest.py``
(``derandomize=True``, ``deadline=None``) so this suite cannot flake
in CI.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.core.registry import iter_policies
from repro.cpu.config import CoreConfig
from repro.cpu.fetch import FetchUnit
from repro.cpu.ooo import OutOfOrderCore
from repro.cpu.stats import CoreStats
from repro.fastsim import FastCore, FastFetchUnit
from repro.fastsim.missrate import fast_miss_rate
from repro.sim import runner
from repro.sim.config import CacheLevelConfig, SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.simulator import Simulator
from repro.workload.instr import (
    OP_BRANCH,
    OP_CALL,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_RET,
    OP_STORE,
    Instr,
)
from repro.workload.trace import Trace

#: Registered policy kinds, resolved once at collection time.
DCACHE_KINDS = [info.kind for info in iter_policies("dcache")]
ICACHE_KINDS = [info.kind for info in iter_policies("icache")]

#: A small system so short traces still produce conflicts, evictions,
#: and mispredictions: 512B 4-way L1s over a 4K L2.
SMALL = SystemConfig(
    icache=CacheLevelConfig(1, 4, 32, 1),
    dcache=CacheLevelConfig(1, 4, 32, 1),
    l2=CacheLevelConfig(4, 4, 32, 6),
)


# ------------------------------------------------------------------ #
# Trace generation
# ------------------------------------------------------------------ #


@st.composite
def traces(draw) -> Trace:
    """A short, well-formed correct-path trace.

    Control flow is made self-consistent (taken branches continue at
    their targets, returns target the call site's successor when the
    call stack allows) so the fetch unit exercises its BTB/RAS/SAWP
    paths rather than stalling on every transfer.
    """
    length = draw(st.integers(min_value=30, max_value=150))
    ops = draw(
        st.lists(
            st.sampled_from(
                [OP_INT, OP_INT, OP_LOAD, OP_LOAD, OP_LOAD, OP_STORE,
                 OP_FP, OP_BRANCH, OP_BRANCH, OP_CALL, OP_RET]
            ),
            min_size=length,
            max_size=length,
        )
    )
    # A small pool of data blocks; reuse drives hits, aliasing drives
    # conflicts and way-prediction training.
    addr_pool = draw(
        st.lists(st.integers(min_value=0, max_value=0x7FF), min_size=3, max_size=12)
    )
    jump_pool = draw(
        st.lists(st.integers(min_value=0, max_value=0x3FF), min_size=2, max_size=8)
    )
    choices = draw(
        st.lists(st.integers(min_value=0, max_value=2 ** 30), min_size=length,
                 max_size=length)
    )

    instrs = []
    pc = 0x1000
    call_stack = []
    for i, op in enumerate(ops):
        pick = choices[i]
        if op == OP_LOAD or op == OP_STORE:
            addr = (addr_pool[pick % len(addr_pool)] << 3) | (pick % 32 & ~0x3)
            instrs.append(
                Instr(pc, op, dst=pick % 8 if op == OP_LOAD else -1,
                      src1=pick % 4, addr=addr,
                      xor_handle=(addr >> 5) ^ (pick % 16))
            )
            pc += 4
        elif op == OP_BRANCH:
            taken = pick % 2 == 1
            target = 0x1000 + (jump_pool[pick % len(jump_pool)] << 2)
            instrs.append(Instr(pc, OP_BRANCH, src1=pick % 8, taken=taken, target=target))
            pc = target if taken else pc + 4
        elif op == OP_CALL:
            target = 0x2000 + (jump_pool[pick % len(jump_pool)] << 2)
            call_stack.append(pc + 4)
            instrs.append(Instr(pc, OP_CALL, taken=True, target=target))
            pc = target
        elif op == OP_RET:
            if call_stack:
                target = call_stack.pop()
            else:
                target = 0x1000 + (jump_pool[pick % len(jump_pool)] << 2)
            instrs.append(Instr(pc, OP_RET, taken=True, target=target))
            pc = target
        else:
            instrs.append(Instr(pc, op, dst=pick % 8, src1=(pick >> 3) % 8,
                                src2=(pick >> 6) % 8))
            pc += 4
    return Trace("hypothesis", instrs)


def straight_line(name: str, rows) -> Trace:
    """A branch-free trace of ``(op, dst, src1, src2, addr)`` rows."""
    return Trace(name, [
        Instr(0x1000 + 4 * i, op, dst=dst, src1=src1, src2=src2, addr=addr,
              xor_handle=addr >> 5)
        for i, (op, dst, src1, src2, addr) in enumerate(rows)
    ])


#: Hand-built traces for the fast core's parked-consumer paths (an
#: entry whose producer has not issued waits on that producer's list).
#: The consumer (row 4) parks on its src1 producer, wakes when that
#: issues, then parks again on its src2 producer, which still waits on
#: a load that misses to memory.
PARK_TWICE = straight_line("park-twice", [
    (OP_LOAD, 1, -1, -1, 0x4000),
    (OP_INT, 2, 1, -1, 0),
    (OP_FP, 5, -1, -1, 0),
    (OP_INT, 3, 5, -1, 0),
    (OP_INT, 6, 3, 2, 0),
    (OP_INT, 7, 6, -1, 0),
])
#: Each load's address register comes from the previous load.
POINTER_CHASE = straight_line("pointer-chase", [
    (OP_LOAD, 1, 1, -1, addr)
    for addr in (0x4000, 0x4800, 0x4000, 0x5000, 0x4800, 0x6000)
] + [(OP_INT, 2, 1, -1, 0), (OP_STORE, -1, 2, -1, 0x4000)])
#: A load misses to memory ahead of a two-level dependency chain, so the
#: idle skip runs while the chain's second level and its users are parked.
#: Row 3 is a younger sibling of the first level; on a single-issue core
#: the woken second level, a slow FP op, must still issue before it.
MISS_THEN_CHAIN = straight_line("miss-then-chain", [
    (OP_LOAD, 1, -1, -1, 0x4000),
    (OP_INT, 2, 1, -1, 0),
    (OP_FP, 3, 2, -1, 0),
    (OP_INT, 4, 1, -1, 0),
    (OP_FP, 5, 3, -1, 0),
    (OP_FP, 6, 5, 4, 0),
])


def assert_backends_identical(config: SystemConfig, trace: Trace) -> None:
    """Run both backends over one trace; assert to_flat() equality."""
    reference = Simulator(config, backend="reference").run(trace).to_flat()
    fast = Simulator(config, backend="fast").run(trace).to_flat()
    mismatched = {
        key: (reference[key], fast[key])
        for key in reference
        if reference[key] != fast[key]
    }
    assert not mismatched, f"fast backend diverged on: {mismatched}"


# ------------------------------------------------------------------ #
# Full-simulation equivalence, every registered policy kind
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("kind", DCACHE_KINDS)
@settings(max_examples=10)
@given(trace=traces())
def test_dcache_policy_kind_identical(kind, trace):
    """Every d-cache PolicyInfo: fast == reference, field for field."""
    assert_backends_identical(SMALL.with_dcache_policy(kind), trace)


@pytest.mark.parametrize("kind", ICACHE_KINDS)
@settings(max_examples=10)
@given(trace=traces())
def test_icache_policy_kind_identical(kind, trace):
    """Every i-cache PolicyInfo: fast == reference, field for field."""
    config = SMALL.with_icache_policy(kind).with_dcache_policy("seldm_waypred")
    assert_backends_identical(config, trace)


#: Core shapes that starve each pipeline structure in turn: the paper's
#: 8-wide default, a single-issue machine, a tiny ROB/LSQ window, a
#: one-port d-cache with slow FP, and a deep-redirect narrow fetch.
CORE_SHAPES = {
    "paper": CoreConfig(),
    "single_issue": CoreConfig(
        fetch_width=1, dispatch_width=1, issue_width=1, commit_width=1
    ),
    "tiny_window": CoreConfig(rob_size=4, lsq_size=2),
    "one_port_slow_fp": CoreConfig(dcache_ports=1, fp_latency=12, int_latency=2),
    "deep_redirect": CoreConfig(
        fetch_width=2,
        redirect_penalty=6,
        btb_entries=16,
        ras_depth=2,
        bimodal_entries=32,
        gshare_entries=32,
        history_bits=5,
        chooser_entries=32,
    ),
}


@pytest.mark.parametrize("shape", sorted(CORE_SHAPES))
@settings(max_examples=8)
@given(trace=traces())
@example(trace=PARK_TWICE)
@example(trace=POINTER_CHASE)
@example(trace=MISS_THEN_CHAIN)
def test_core_shapes_identical(shape, trace):
    """The fast core is cycle-exact under starved pipeline shapes too."""
    config = dataclasses.replace(
        SMALL.with_dcache_policy("seldm_waypred").with_icache_policy("waypred"),
        core=CORE_SHAPES[shape],
    )
    assert_backends_identical(config, trace)


@pytest.mark.parametrize("shape", ["paper", "tiny_window", "deep_redirect"])
@settings(max_examples=8)
@given(trace=traces())
@example(trace=PARK_TWICE)
@example(trace=POINTER_CHASE)
@example(trace=MISS_THEN_CHAIN)
def test_core_stats_identical(shape, trace):
    """Every CoreStats field matches, including those only Wattch reads
    (dispatched, issued, ...), which escape to_flat() equality."""
    config = dataclasses.replace(
        SMALL.with_icache_policy("waypred"), core=CORE_SHAPES[shape]
    )

    def run_core(backend):
        simulator = Simulator(config, backend=backend)
        stats = CoreStats()
        if backend == "fast":
            fetch_unit = FastFetchUnit(trace, simulator.icache, config.core, stats)
            FastCore(config.core, fetch_unit, simulator.dcache, stats).run()
        else:
            fetch_unit = FetchUnit(trace, simulator.icache, config.core, stats)
            OutOfOrderCore(config.core, fetch_unit, simulator.dcache, stats).run()
        return stats

    reference, fast = run_core("reference"), run_core("fast")
    mismatched = {
        field.name: (getattr(reference, field.name), getattr(fast, field.name))
        for field in dataclasses.fields(CoreStats)
        if getattr(reference, field.name) != getattr(fast, field.name)
    }
    assert not mismatched, f"fast core stats diverged on: {mismatched}"


@settings(max_examples=6)
@given(trace=traces())
def test_small_evicting_caches_identical(trace):
    """With 1 KB L1s and a 4 KB L2, small enough for Hypothesis traces
    to evict, the fast arrays pick the reference's LRU victims."""
    config = SystemConfig(
        icache=CacheLevelConfig(1, 4, 32, 1),
        dcache=CacheLevelConfig(1, 4, 32, 1),
        l2=CacheLevelConfig(4, 4, 32, 6),
    ).with_dcache_policy("waypred_pc")
    assert_backends_identical(config, trace)


# ------------------------------------------------------------------ #
# Functional miss-rate equivalence, warmup edges included
# ------------------------------------------------------------------ #


@settings(max_examples=20)
@given(
    trace=traces(),
    warmup=st.sampled_from([0.0, 0.2, 0.5, 0.95, 0.999]),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_miss_rate_identical(trace, warmup, assoc):
    """fast_miss_rate == measure_miss_rate at every warmup fraction,
    including the 0.0 and near-1.0 edges."""
    geometry = CacheGeometry(1024, assoc, 32)
    reference = measure_miss_rate(trace, geometry, warmup)
    fast = fast_miss_rate(trace, geometry, warmup)
    assert reference == fast


def test_miss_rate_rejects_bad_warmup():
    """Both backends reject out-of-range warmup fractions identically."""
    trace = Trace("t", [Instr(0x1000, OP_LOAD, addr=0x40)])
    geometry = CacheGeometry(1024, 2, 32)
    for warmup in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            measure_miss_rate(trace, geometry, warmup_fraction=warmup)
        with pytest.raises(ValueError):
            fast_miss_rate(trace, geometry, warmup_fraction=warmup)


# ------------------------------------------------------------------ #
# Degenerate-trace contract: edge-case streams on both backends
# ------------------------------------------------------------------ #


def mem_trace(name: str, spec) -> Trace:
    """A trace from (op, addr) pairs; non-memory ops carry addr=0."""
    return Trace(name, [Instr(0x1000 + 4 * i, op, addr=addr)
                        for i, (op, addr) in enumerate(spec)])


DEGENERATES = {
    "no-mem-ops": [(OP_INT, 0)] * 12,
    "single-access": [(OP_INT, 0)] * 5 + [(OP_LOAD, 64)],
    "single-store": [(OP_STORE, 64)],
    "empty-trace": [],
}


@pytest.fixture
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    runner.clear_caches()
    yield
    runner.clear_caches()


class TestDegenerateTraces:
    @pytest.mark.parametrize("name", sorted(DEGENERATES))
    def test_all_tiers_byte_agree(self, name, no_cache):
        """Empty/one-access streams: identical flats on both backends."""
        trace = mem_trace(name, DEGENERATES[name])
        flats = []
        for backend in ("reference", "fast"):
            runner.clear_caches()
            runner._TRACE_CACHE[(name, 1000, 0)] = trace
            result = runner.execute(
                name, SystemConfig(), 1000, mode="missrate", backend=backend
            )
            flats.append(result.to_flat())
        assert flats[0] == flats[1]

    def test_single_access_is_all_warmup_free(self, no_cache):
        """One mem op: warmup = int(1*0.2) = 0, so it IS measured."""
        runner._TRACE_CACHE[("one", 10, 0)] = mem_trace("one", [(OP_LOAD, 64)])
        result = runner.execute("one", SystemConfig(), 10, mode="missrate")
        assert result.dcache.accesses == 1
        assert result.dcache.misses == 1  # cold miss

    def test_no_mem_ops_miss_rate_zero(self, no_cache):
        runner._TRACE_CACHE[("none", 10, 0)] = mem_trace("none", [(OP_INT, 0)] * 8)
        result = runner.execute("none", SystemConfig(), 10, mode="missrate")
        assert result.dcache.accesses == 0
        assert result.dcache.miss_rate == 0.0

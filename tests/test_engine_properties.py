"""Property-based tests on the policy engines.

The invariants here are the paper's energy/latency contracts: whatever
the access pattern, per-policy bounds on probes, latency, and energy
must hold.
"""

from hypothesis import given, settings, strategies as st


from tests.test_policies import make_engine, priced

# Access pattern: (pc_index, block_index) pairs over a small space so
# hits, misses, conflicts, and aliasing all occur.
ACCESSES = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 63)),
    min_size=1,
    max_size=150,
)


def drive(engine, pattern):
    outcomes = []
    for pc_index, block_index in pattern:
        outcomes.append(engine.load(0x400 + pc_index * 4, block_index * 32, block_index))
    return outcomes


class TestEngineInvariants:
    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_parallel_reads_n_ways_per_load(self, pattern):
        engine = make_engine("parallel")
        drive(engine, pattern)
        stats = engine.stats
        assert stats.parallel_reads == len(pattern)
        assert stats.one_way_reads == stats.tag_only_probes == stats.second_probes == 0

    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_single_way_policies_read_at_most_two(self, pattern):
        """Way-predicted/DM loads read 1 way, 2 on mispredict — never more."""
        for kind in ("waypred_pc", "seldm_waypred", "oracle"):
            engine = make_engine(kind)
            drive(engine, pattern)
            stats = engine.stats
            # Each load is one single-way read or one parallel fallback,
            # and a single-way read adds at most one second probe.
            assert stats.parallel_reads == stats.access_kinds.get("parallel", 0)
            assert stats.one_way_reads + stats.parallel_reads == len(pattern)
            assert stats.tag_only_probes == 0
            assert stats.second_probes <= stats.one_way_reads

    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_latency_bounds(self, pattern):
        """Hit latency is base or base+1; miss adds at least L2 latency."""
        for kind in ("parallel", "sequential", "waypred_pc", "seldm_sequential"):
            engine = make_engine(kind)
            for outcome in drive(engine, pattern):
                if outcome.hit:
                    assert 1 <= outcome.latency <= 2
                else:
                    assert outcome.latency >= 1 + 12

    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_energy_monotone_nonnegative(self, pattern):
        engine = make_engine("seldm_waypred")
        last = 0.0
        for pc_index, block_index in pattern:
            engine.load(0x400 + pc_index * 4, block_index * 32)
            total = sum(priced(engine))
            assert total >= last
            last = total

    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_kinds_partition_loads(self, pattern):
        """Every load is classified into exactly one access kind."""
        for kind in ("parallel", "sequential", "waypred_pc", "seldm_waypred"):
            engine = make_engine(kind)
            drive(engine, pattern)
            assert sum(engine.stats.access_kinds.values()) == len(pattern)

    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_oracle_never_mispredicts(self, pattern):
        engine = make_engine("oracle")
        drive(engine, pattern)
        assert engine.stats.second_probes == 0
        assert engine.stats.correct_predictions == engine.stats.predictions

    @settings(max_examples=25, deadline=None)
    @given(pattern=ACCESSES)
    def test_hit_miss_identical_across_policies(self, pattern):
        """Policies that never force placement see identical hit/miss
        streams (probe scheduling must not change functional behaviour)."""
        reference = None
        for kind in ("parallel", "sequential", "waypred_pc", "oracle"):
            engine = make_engine(kind)
            hits = tuple(o.hit for o in drive(engine, pattern))
            if reference is None:
                reference = hits
            else:
                assert hits == reference, kind

    @settings(max_examples=15, deadline=None)
    @given(pattern=ACCESSES)
    def test_parallel_energy_dominates_oracle(self, pattern):
        """Parallel access can never be cheaper than perfect prediction."""
        parallel = make_engine("parallel")
        oracle = make_engine("oracle")
        drive(parallel, pattern)
        drive(oracle, pattern)
        assert priced(parallel)[0] >= priced(oracle)[0] - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(pattern=ACCESSES)
    def test_stats_accounting_consistent(self, pattern):
        engine = make_engine("seldm_waypred")
        drive(engine, pattern)
        stats = engine.stats
        assert stats.loads == len(pattern)
        assert stats.load_hits <= stats.loads
        assert stats.correct_predictions <= stats.predictions
        assert stats.fills == stats.load_misses  # one fill per miss

"""Sweep subsystem tests: specs, engine determinism, caching, export."""

import json
from dataclasses import asdict

import pytest

from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.sim.functional import measure_miss_rate
from repro.sim.results import CoreMetrics, EnergyMetrics, L1Metrics, SimResult
from repro.sweep.analyze import DesignPoint, design_space_spec, render_summaries, summarize
from repro.sweep.engine import SweepEngine, default_jobs
from repro.sweep.result import SweepResult, SweepStats
from repro.sweep.spec import RunSpec, SweepSpec

INSTRUCTIONS = 4_000
BENCHMARKS = ("gcc", "swim")


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Fresh in-process and on-disk caches for accounting tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    runner.clear_caches()
    yield tmp_path
    runner.clear_caches()


@pytest.fixture
def no_cache(monkeypatch):
    """Disable the disk cache and clear the in-process one."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    runner.clear_caches()
    yield
    runner.clear_caches()


def small_spec(name="small") -> SweepSpec:
    baseline = SystemConfig()
    technique = baseline.with_dcache_policy("seldm_waypred")
    return SweepSpec.from_grid(name, BENCHMARKS, (baseline, technique), INSTRUCTIONS)


class TestRunSpec:
    def test_key_is_stable_and_distinct(self):
        config = SystemConfig()
        a = RunSpec("gcc", config, 1000)
        b = RunSpec("gcc", config, 1000)
        assert a.key() == b.key()
        assert a.key() != RunSpec("swim", config, 1000).key()
        assert a.key() != RunSpec("gcc", config, 2000).key()
        assert a.key() != RunSpec("gcc", config, 1000, salt=1).key()
        assert a.key() != RunSpec("gcc", config, 1000, mode="missrate").key()

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="unknown run mode"):
            RunSpec("gcc", SystemConfig(), 1000, mode="quantum")

    def test_rejects_bad_instructions(self):
        with pytest.raises(ValueError, match="positive"):
            RunSpec("gcc", SystemConfig(), 0)

    def test_describe_names_benchmark(self):
        spec = RunSpec("gcc", SystemConfig(), 1000)
        assert "gcc" in spec.describe()


class TestSweepSpec:
    def test_from_grid_is_cartesian(self):
        spec = small_spec()
        assert len(spec) == len(BENCHMARKS) * 2

    def test_deduplicates_preserving_order(self):
        run = RunSpec("gcc", SystemConfig(), 1000)
        other = RunSpec("swim", SystemConfig(), 1000)
        spec = SweepSpec("dup", (run, other, run, run))
        assert spec.runs == (run, other)

    def test_merged_unions(self):
        left = small_spec("left")
        right = SweepSpec.from_grid(
            "right", ("go",), (SystemConfig(),), INSTRUCTIONS
        )
        merged = left.merged(right, name="both")
        assert merged.name == "both"
        assert len(merged) == len(left) + 1
        # merging with itself adds nothing
        assert len(left.merged(left)) == len(left)


class TestEngineDeterminism:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepEngine(jobs=0)

    def test_serial_and_parallel_results_identical(self, no_cache):
        """Same spec -> byte-identical export at jobs=1 and jobs=4."""
        spec = small_spec()
        serial = SweepEngine(jobs=1, use_cache=False).run(spec)
        parallel = SweepEngine(jobs=4, use_cache=False).run(spec)
        assert serial.to_json() == parallel.to_json()
        for run in spec:
            assert asdict(serial[run]) == asdict(parallel[run])

    def test_repeat_runs_identical(self, no_cache):
        spec = small_spec()
        engine = SweepEngine(jobs=1, use_cache=False)
        assert engine.run(spec).to_json() == engine.run(spec).to_json()


class TestEngineAccounting:
    def test_cold_then_warm(self, isolated_cache):
        spec = small_spec()
        engine = SweepEngine(jobs=1)
        cold = engine.run(spec)
        assert cold.stats.executed == len(spec)
        assert cold.stats.cache_hits == 0

        warm = engine.run(spec)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(spec)
        assert warm.to_json() == cold.to_json()

    def test_disk_cache_survives_process_memory(self, isolated_cache):
        spec = small_spec()
        SweepEngine(jobs=1).run(spec)
        runner.clear_caches()  # drop in-process memo; disk remains
        warm = SweepEngine(jobs=1).run(spec)
        assert warm.stats.cache_hits == len(spec)
        assert warm.stats.executed == 0

    def test_duplicate_runs_counted_once(self, isolated_cache):
        base = small_spec()
        doubled = SweepSpec(base.name, base.runs + base.runs)
        stats = SweepEngine(jobs=1).run(doubled).stats
        assert stats.unique == len(base)  # SweepSpec dedups on construction
        assert stats.executed == len(base)

    def test_partial_overlap_between_sweeps(self, isolated_cache):
        SweepEngine(jobs=1).run(small_spec())
        extended = small_spec().extended(
            (RunSpec("go", SystemConfig(), INSTRUCTIONS),)
        )
        stats = SweepEngine(jobs=1).run(extended).stats
        assert stats.cache_hits == len(small_spec())
        assert stats.executed == 1

    def test_progress_callback(self, no_cache):
        seen = []
        engine = SweepEngine(
            jobs=1, use_cache=False,
            progress=lambda done, total, run, hit: seen.append((done, total, hit)),
        )
        engine.run(small_spec())
        assert seen == [(i + 1, 4, False) for i in range(4)]

    def test_progress_callback_flags_cache_hits(self, isolated_cache):
        engine = SweepEngine(jobs=1)
        engine.run(small_spec())
        seen = []
        engine.run(
            small_spec(),
            progress=lambda done, total, run, hit: seen.append((done, hit)),
        )
        assert seen == [(i + 1, True) for i in range(4)]

    def test_progress_callback_pool_path(self, no_cache):
        seen = []
        SweepEngine(jobs=2, use_cache=False).run(
            small_spec(),
            progress=lambda done, total, run, hit: seen.append((done, total)),
        )
        assert seen == [(i + 1, 4) for i in range(4)]

    def test_run_progress_overrides_engine_default(self, no_cache):
        default_seen, override_seen = [], []
        engine = SweepEngine(
            jobs=1, use_cache=False,
            progress=lambda *event: default_seen.append(event),
        )
        engine.run(
            small_spec(),
            progress=lambda *event: override_seen.append(event),
        )
        assert not default_seen
        assert len(override_seen) == 4

    def test_stats_describe(self):
        stats = SweepStats(unique=4, cache_hits=1, executed=3, jobs=2)
        text = stats.describe()
        assert "1 cached" in text and "3 executed" in text


#: A config ``RunSpec`` accepts but the worker cannot build: the
#: geometry rejects a 3-way L1 when the run executes.
BAD_CONFIG = SystemConfig().with_dcache(associativity=3)


class TestFailureSemantics:
    def test_worker_error_propagates_serial(self, no_cache):
        bad = RunSpec("gcc", BAD_CONFIG, INSTRUCTIONS)
        with pytest.raises(ValueError, match="power of two"):
            SweepEngine(jobs=1, use_cache=False).run(SweepSpec("bad", (bad,)))

    def test_worker_error_propagates_parallel(self, no_cache):
        """A simulation error in a worker is not masked by the serial
        fallback — it surfaces to the caller unchanged."""
        runs = (
            RunSpec("gcc", BAD_CONFIG, INSTRUCTIONS),
            RunSpec("swim", BAD_CONFIG, INSTRUCTIONS),
        )
        with pytest.raises(ValueError, match="power of two"):
            SweepEngine(jobs=2, use_cache=False).run(SweepSpec("bad", runs))

    def test_completed_runs_cached_before_failure(self, isolated_cache):
        """Results finished before an error are already published, so a
        re-run after fixing the spec does not repeat them."""
        good = RunSpec("gcc", SystemConfig(), INSTRUCTIONS)
        bad = RunSpec("gcc", BAD_CONFIG, INSTRUCTIONS)
        with pytest.raises(ValueError):
            SweepEngine(jobs=1).run(SweepSpec("partial", (good, bad)))
        assert runner.load_cached("gcc", SystemConfig(), INSTRUCTIONS) is not None
        stats = SweepEngine(jobs=1).run(SweepSpec("retry", (good,))).stats
        assert stats.cache_hits == 1
        assert stats.executed == 0


class TestRunOne:
    def test_run_one_matches_run_benchmark(self, isolated_cache):
        run = RunSpec("gcc", SystemConfig(), INSTRUCTIONS)
        via_engine = SweepEngine(jobs=1).run_one(run)
        direct = runner.run_benchmark("gcc", SystemConfig(), INSTRUCTIONS)
        assert asdict(via_engine) == asdict(direct)


class TestMissrateMode:
    def test_matches_functional_model(self, no_cache):
        config = SystemConfig().with_dcache(associativity=1)
        run = RunSpec("gcc", config, 20_000, mode="missrate")
        result = SweepEngine(jobs=1, use_cache=False).run_one(run)
        trace = runner.get_trace("gcc", 20_000)
        expected = measure_miss_rate(trace, config.dcache.geometry())
        assert result.dcache.misses == expected.misses
        assert result.dcache.loads == expected.load_accesses
        assert result.dcache.miss_rate == pytest.approx(expected.miss_rate)

    def test_unknown_mode_rejected_by_backend(self):
        with pytest.raises(ValueError, match="unknown run mode"):
            runner.execute("gcc", SystemConfig(), 1000, mode="bogus")


class TestSweepResult:
    def test_lookup_and_pair(self, no_cache):
        spec = small_spec()
        sweep = SweepEngine(jobs=1, use_cache=False).run(spec)
        baseline = SystemConfig()
        technique = baseline.with_dcache_policy("seldm_waypred")
        tech, base = sweep.pair("gcc", technique, baseline, INSTRUCTIONS)
        assert tech.energy.dcache < base.energy.dcache

    def test_missing_run_raises_with_context(self):
        sweep = SweepResult(spec=SweepSpec("empty"))
        with pytest.raises(KeyError, match="not in sweep"):
            sweep.get("gcc", SystemConfig(), 1000)

    def test_to_rows_shape(self, no_cache):
        sweep = SweepEngine(jobs=1, use_cache=False).run(small_spec())
        rows = sweep.to_rows()
        assert len(rows) == 4
        assert {row["benchmark"] for row in rows} == set(BENCHMARKS)
        for row in rows:
            assert 0.0 <= row["dcache_miss_rate"] <= 1.0

    def test_to_table_renders(self, no_cache):
        sweep = SweepEngine(jobs=1, use_cache=False).run(small_spec())
        text = sweep.to_table()
        assert "Sweep: small" in text
        assert "gcc" in text and "swim" in text


class TestJsonExport:
    def golden_sweep(self) -> SweepResult:
        """A fully synthetic sweep (no simulation) for exact-byte checks."""
        config = SystemConfig()
        run = RunSpec("gcc", config, 1000)
        result = SimResult(
            benchmark="gcc",
            config_key=config.key(),
            core=CoreMetrics(instructions=1000, cycles=2000, committed=1000),
            dcache=L1Metrics(loads=100, misses=7),
            energy=EnergyMetrics(components={"l1_dcache": 12.5}),
        )
        return SweepResult(spec=SweepSpec("golden", (run,)), results={run: result})

    def test_golden_document(self):
        document = json.loads(self.golden_sweep().to_json())
        assert document["sweep"] == "golden"
        [entry] = document["runs"]
        assert entry["benchmark"] == "gcc"
        assert entry["instructions"] == 1000
        assert entry["mode"] == "sim"
        assert entry["result"]["core"]["cycles"] == 2000
        assert entry["result"]["energy"]["components"] == {"l1_dcache": 12.5}

    def test_golden_bytes_stable(self):
        """The export is byte-stable: sorted keys, fixed indent, no
        environment-dependent content (stats, timings, paths)."""
        first = self.golden_sweep().to_json()
        second = self.golden_sweep().to_json()
        assert first == second
        assert '"sweep": "golden"' in first
        assert "wall_seconds" not in first and "cache_hits" not in first

    def test_export_identical_across_job_counts_and_cache_states(self, isolated_cache):
        spec = small_spec()
        cold = SweepEngine(jobs=1).run(spec).to_json()
        warm = SweepEngine(jobs=4).run(spec).to_json()
        assert cold == warm


class TestSchemaVersionedCache:
    def test_key_embeds_schema_version(self):
        key_now = runner.cache_key("gcc", SystemConfig(), 1000)
        assert key_now == RunSpec("gcc", SystemConfig(), 1000).key()
        # v1-era key (no mode, no schema hash) must not collide.
        import hashlib

        legacy = hashlib.sha256(
            f"gcc|{SystemConfig().key()}|1000|0|v1".encode("utf-8")
        ).hexdigest()
        assert key_now != legacy

    def test_stale_schema_entry_ignored(self, isolated_cache):
        """A cache file whose fields don't match SimResult is a miss, not
        a crash."""
        key = runner.cache_key("gcc", SystemConfig(), INSTRUCTIONS)
        stale = isolated_cache / f"{key}.json"
        stale.write_text(json.dumps({"benchmark": "gcc", "bogus_field": 1}))
        assert runner.load_cached("gcc", SystemConfig(), INSTRUCTIONS) is None
        result = runner.run_benchmark("gcc", SystemConfig(), INSTRUCTIONS)
        assert result.cycles > 0  # re-simulated and re-stored
        runner.clear_caches()
        assert runner.load_cached("gcc", SystemConfig(), INSTRUCTIONS) is not None

    def test_corrupt_entry_ignored(self, isolated_cache):
        key = runner.cache_key("gcc", SystemConfig(), INSTRUCTIONS)
        (isolated_cache / f"{key}.json").write_text("{not json")
        assert runner.load_cached("gcc", SystemConfig(), INSTRUCTIONS) is None

    def test_schema_version_tracks_fields(self):
        import hashlib

        names = ",".join(SimResult.flat_field_names())
        assert runner.SCHEMA_VERSION == hashlib.sha256(
            names.encode("utf-8")
        ).hexdigest()[:12]

    def test_schema_version_bumped_from_v2(self):
        """The nested-sections redesign must roll the disk-cache schema:
        the v2 (flat-field) version hash no longer matches."""
        import hashlib

        v2_fields = (
            "benchmark", "branch_mispredicts", "branches", "committed",
            "config_key", "cycles", "dcache_correct_predictions",
            "dcache_kinds", "dcache_load_misses", "dcache_loads",
            "dcache_misses", "dcache_predictions", "dcache_second_probes",
            "dcache_stores", "energy", "fetch_cycles",
            "icache_correct_predictions", "icache_fetches", "icache_kinds",
            "icache_misses", "icache_predictions", "icache_second_probes",
            "instructions", "l2_accesses", "l2_misses",
            "processor_components",
        )
        v2 = hashlib.sha256(",".join(v2_fields).encode("utf-8")).hexdigest()[:12]
        assert runner.SCHEMA_VERSION != v2


class TestAnalyze:
    def test_summarize_matches_manual(self, no_cache):
        baseline = SystemConfig()
        technique = baseline.with_dcache_policy("seldm_waypred")
        points = [DesignPoint("point", technique, baseline)]
        spec = design_space_spec(points, BENCHMARKS, INSTRUCTIONS)
        sweep = SweepEngine(jobs=1, use_cache=False).run(spec)
        [summary] = summarize(sweep, points, BENCHMARKS, INSTRUCTIONS)

        from repro.sim.results import relative_energy_delay

        expected = []
        for bench in BENCHMARKS:
            tech, base = sweep.pair(bench, technique, baseline, INSTRUCTIONS)
            expected.append(relative_energy_delay(tech, base, "dcache"))
        assert summary.relative_energy_delay == pytest.approx(
            sum(expected) / len(expected)
        )
        assert set(summary.per_benchmark) == set(BENCHMARKS)

    def test_render_summaries(self, no_cache):
        baseline = SystemConfig()
        points = [
            DesignPoint("p", baseline.with_dcache_policy("sequential"), baseline)
        ]
        spec = design_space_spec(points, ("gcc",), INSTRUCTIONS)
        sweep = SweepEngine(jobs=1, use_cache=False).run(spec)
        text = render_summaries(
            summarize(sweep, points, ("gcc",), INSTRUCTIONS), "T"
        )
        assert text.startswith("T")
        assert "p" in text


class TestDefaultJobs:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        for bad in ("bogus", "0", "-3"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match=f"REPRO_JOBS .* got '{bad}'"):
                default_jobs()
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == 1

"""Service subsystem tests: protocol, queue, limits, stores, execution."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service.jobs import execute_job
from repro.service.limits import RateLimiter, TokenBucket
from repro.service.protocol import (
    ExperimentJobSpec,
    ProtocolError,
    SweepJobSpec,
    canonical_payload,
    fingerprint,
    parse_job_request,
)
from repro.service.queue import ID_LENGTH, JobQueue
from repro.service.store import ReportStore, cache_stats, shard_counts
from repro.sim import runner
from repro.sim.config import SystemConfig
from repro.workload import generate_trace, write_trace
from repro.workload.profiles import benchmark_names


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Fresh in-process and on-disk caches."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    runner.clear_caches()
    yield tmp_path / "cache"
    runner.clear_caches()


# ------------------------------------------------------------------ #
# Protocol
# ------------------------------------------------------------------ #


class TestProtocol:
    def test_sweep_defaults_mirror_cli(self):
        spec = parse_job_request({"kind": "sweep", "benchmarks": ["gcc"]})
        assert isinstance(spec, SweepJobSpec)
        assert spec.sizes == (16,)
        assert spec.ways == (4,)
        assert spec.latencies == (1,)
        assert spec.policies == ("seldm_waypred",)
        assert spec.baseline_policy == "parallel"
        assert spec.instructions == 25_000
        assert spec.component == "dcache"
        assert spec.backend == "reference"

    def test_kind_defaults_to_sweep(self):
        spec = parse_job_request({"benchmarks": ["gcc"]})
        assert isinstance(spec, SweepJobSpec)

    def test_benchmarks_default_to_all(self):
        spec = parse_job_request({"kind": "sweep"})
        assert spec.benchmarks == tuple(benchmark_names())

    def test_experiment_parse(self):
        spec = parse_job_request(
            {"kind": "experiment", "experiments": ["table4"],
             "benchmarks": ["gcc", "swim"], "instructions": 6000}
        )
        assert isinstance(spec, ExperimentJobSpec)
        assert spec.experiments == ("table4",)
        assert spec.instructions == 6000

    @pytest.mark.parametrize(
        "body, match",
        [
            ([1, 2], "JSON object"),
            ({"kind": "nope"}, "unknown job kind"),
            ({"kind": "sweep", "bogus_field": 1}, "unknown field"),
            ({"kind": "sweep", "benchmarks": []}, "at least one workload"),
            ({"kind": "sweep", "benchmarks": ["nope"]}, "unknown benchmark"),
            ({"kind": "sweep", "benchmarks": "gcc"}, "list of strings"),
            ({"kind": "sweep", "sizes": [0]}, "positive integers"),
            ({"kind": "sweep", "instructions": 0}, "integer >= 1"),
            ({"kind": "sweep", "policies": ["nope"]}, "unknown"),
            ({"kind": "sweep", "component": "l2"}, "unknown component"),
            ({"kind": "sweep", "backend": "cuda"}, "unknown backend"),
            ({"kind": "experiment", "experiments": ["table4"], "interval": -1},
             "integer >= 0"),
            ({"kind": "sweep", "salt": True}, "integer"),
            ({"kind": "sweep", "chunks": 2}, "unknown field"),
            ({"kind": "sweep", "baseline_policy": 3}, "must be a string"),
            ({"kind": "experiment"}, "at least one experiment"),
            ({"kind": "experiment", "experiments": ["nope"]}, "unknown experiment"),
            ({"kind": "experiment", "experiments": ["table4"],
              "benchmarks": ["trace://x.din"]}, "unknown benchmark"),
            ({"kind": "sweep", "backend": "vector"}, "unknown backend"),
        ],
    )
    def test_malformed_requests(self, body, match):
        with pytest.raises(ProtocolError, match=match):
            parse_job_request(body)

    def test_missing_trace_rejected_at_parse(self, tmp_path):
        with pytest.raises(ProtocolError):
            parse_job_request(
                {"kind": "sweep", "benchmarks": [f"trace://{tmp_path}/no.din"]}
            )

    def test_fingerprint_ignores_spelling(self):
        sparse = parse_job_request({"benchmarks": ["gcc", "swim"]})
        explicit = parse_job_request(
            {"kind": "sweep", "benchmarks": ["gcc", "swim"], "sizes": [16],
             "ways": [4], "latencies": [1], "policies": ["seldm_waypred"],
             "baseline_policy": "parallel", "instructions": 25_000,
             "salt": 0, "component": "dcache", "backend": "reference"}
        )
        assert fingerprint(sparse) == fingerprint(explicit)

    def test_fingerprint_is_order_sensitive(self):
        # Benchmark order shapes the report, so it is part of identity.
        ab = parse_job_request({"benchmarks": ["gcc", "swim"]})
        ba = parse_job_request({"benchmarks": ["swim", "gcc"]})
        assert fingerprint(ab) != fingerprint(ba)

    def test_fingerprint_tracks_trace_content(self, tmp_path, isolated_cache):
        path = tmp_path / "t.din"
        write_trace(path, generate_trace("gcc", 200))
        request = {"kind": "sweep", "benchmarks": [f"trace://{path}"]}
        before = fingerprint(parse_job_request(request))
        write_trace(path, generate_trace("gcc", 300))
        runner.clear_caches()  # workload ids memoize by (path, mtime, size)
        after = fingerprint(parse_job_request(request))
        assert before != after

    def test_canonical_payload_round_trips(self):
        spec = parse_job_request({"benchmarks": ["gcc"], "sizes": [8, 16]})
        payload = canonical_payload(spec)
        assert payload["kind"] == "sweep"
        assert parse_job_request(payload) == spec
        json.dumps(payload)  # JSON-safe


# ------------------------------------------------------------------ #
# Queue
# ------------------------------------------------------------------ #


FP_A = "a" * 64
FP_B = "b" * 64


class TestJobQueue:
    def test_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        record, created = queue.submit(FP_A, "sweep", {"kind": "sweep"})
        assert created and record.state == "queued"
        assert record.id == FP_A[:ID_LENGTH]

        claimed = queue.claim()
        assert claimed.id == record.id and claimed.state == "running"
        assert queue.claim() is None  # nothing else queued

        queue.record_progress(record.id, 2, 1)
        assert queue.get(record.id).runs_done == 2

        queue.finish(record.id, 4, 1)
        done = queue.get(record.id)
        assert done.state == "done" and done.runs_done == 4
        assert done.finished is not None

    def test_submission_coalesces(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        first, created = queue.submit(FP_A, "sweep", {})
        again, created_again = queue.submit(FP_A, "sweep", {})
        assert created and not created_again
        assert again.id == first.id
        assert queue.depth() == 1

    def test_failed_job_resubmission_requeues(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        record, _ = queue.submit(FP_A, "sweep", {})
        queue.claim()
        queue.fail(record.id, "boom\ntraceback noise")
        failed = queue.get(record.id)
        assert failed.state == "failed" and failed.error == "boom"

        retried, created = queue.submit(FP_A, "sweep", {})
        assert created and retried.state == "queued"
        assert retried.error is None

    def test_recover_requeues_running_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        queue.submit(FP_A, "sweep", {})
        queue.submit(FP_B, "sweep", {})
        queue.claim()
        recovered = queue.recover()
        assert [job.state for job in recovered] == ["queued"]
        assert queue.counts()["queued"] == 2

    def test_late_fail_from_a_sibling_shard_keeps_a_done_job(self, tmp_path):
        """Two shards share one journal: B re-queues and re-runs the job
        A is still running, A finishes it, then B's run fails.  Only a
        ``running`` row changes, so the job stays ``done``."""
        path = tmp_path / "jobs.sqlite"
        shard_a, shard_b = JobQueue(path), JobQueue(path)
        try:
            record, _ = shard_a.submit(FP_A, "sweep", {})
            assert shard_a.claim().id == record.id
            assert [job.id for job in shard_b.recover()] == [record.id]
            assert shard_b.claim().id == record.id
            shard_a.finish(record.id, 3, 1)
            shard_b.fail(record.id, "boom")
            done = shard_a.get(record.id)
            assert done.state == "done" and done.error is None
            assert done.runs_done == 3 and done.cache_hits == 1
        finally:
            shard_a.close()
            shard_b.close()

    def test_journal_survives_reopen(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        queue = JobQueue(path)
        record, _ = queue.submit(FP_A, "sweep", {"kind": "sweep"}, tenant="team-a")
        queue.close()

        reopened = JobQueue(path)
        persisted = reopened.get(record.id)
        assert persisted is not None
        assert persisted.tenant == "team-a"
        assert persisted.request == {"kind": "sweep"}

    def test_claim_order_is_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        queue.submit(FP_B, "sweep", {})
        queue.submit(FP_A, "sweep", {})
        assert queue.claim().id == FP_B[:ID_LENGTH]

    def test_counts_and_depth(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        assert queue.counts() == {"queued": 0, "running": 0, "done": 0, "failed": 0}
        queue.submit(FP_A, "sweep", {})
        queue.submit(FP_B, "sweep", {})
        queue.claim()
        assert queue.counts()["queued"] == 1
        assert queue.counts()["running"] == 1
        assert queue.depth() == 2

    def test_list_jobs_newest_first(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        queue.submit(FP_A, "sweep", {})
        queue.submit(FP_B, "sweep", {})
        listed = queue.list_jobs()
        assert len(listed) == 2
        assert listed[0].created >= listed[1].created

    def test_document_shape(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        record, _ = queue.submit(FP_A, "sweep", {"kind": "sweep"})
        document = record.to_document()
        json.dumps(document)  # JSON-safe
        assert document["state"] == "queued"
        assert document["fingerprint"] == FP_A

    def test_recover_clears_prior_life_metadata(self, tmp_path):
        """A re-queued crash casualty must not look failed or done.

        Regression: ``recover`` used to reset only ``state``/``started``/
        the counters, so a job whose row still carried ``error`` and
        ``finished`` from an earlier failed life (re-enqueued by a
        coalescing resubmit, then claimed, then orphaned by a crash)
        came back as 'queued' but presented stale failure metadata to
        status readers.
        """
        queue = JobQueue(tmp_path / "jobs.sqlite")
        record, _ = queue.submit(FP_A, "sweep", {})
        queue.claim()
        # Forge the prior-life residue a pre-fix journal could hold for
        # a running job: error + finished + progress counters all set.
        with queue._lock, queue._connection:
            queue._connection.execute(
                "UPDATE jobs SET error = 'boom', finished = 123.0,"
                " runs_done = 7, cache_hits = 3 WHERE id = ?",
                (record.id,),
            )
        recovered = queue.recover()
        assert [job.id for job in recovered] == [record.id]
        requeued = queue.get(record.id)
        assert requeued.state == "queued"
        assert requeued.error is None
        assert requeued.finished is None
        assert requeued.started is None
        assert requeued.runs_done == 0 and requeued.cache_hits == 0

    def test_compact_removes_only_stale_terminal_rows(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        done, _ = queue.submit(FP_A, "sweep", {})
        queue.claim()
        queue.finish(done.id, 1, 0)
        queue.submit(FP_B, "sweep", {})  # still queued: never compacted

        # Fresh terminal rows survive a generous cutoff...
        assert queue.compact(3600.0) == []
        # ...and fall to an immediate one.
        assert queue.compact(0.0) == [done.id]
        assert queue.get(done.id) is None
        assert queue.counts() == {"queued": 1, "running": 0, "done": 0,
                                  "failed": 0}

    def test_compact_takes_failed_rows_and_spares_running(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        failed, _ = queue.submit(FP_A, "sweep", {})
        queue.claim()
        queue.fail(failed.id, "boom")
        queue.submit(FP_B, "sweep", {})
        queue.claim()  # FP_B now running

        assert queue.compact(0.0) == [failed.id]
        assert queue.get(FP_B[:ID_LENGTH]).state == "running"
        # A compacted fingerprint can be submitted anew.
        resubmitted, created = queue.submit(FP_A, "sweep", {})
        assert created and resubmitted.state == "queued"

    def test_compact_negative_age_behaves_like_zero(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.sqlite")
        record, _ = queue.submit(FP_A, "sweep", {})
        queue.claim()
        queue.finish(record.id, 1, 0)
        assert queue.compact(-5.0) == [record.id]


# ------------------------------------------------------------------ #
# Rate limits
# ------------------------------------------------------------------ #


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLimits:
    def test_bucket_drains_and_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # burst exhausted
        assert bucket.wait_seconds() == pytest.approx(1.0)
        clock.now = 1.0
        assert bucket.try_acquire()

    def test_bucket_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.now = 100.0  # long idle: still only `burst` tokens
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_nonpositive_rate_disables_limiting(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert all(bucket.try_acquire() for _ in range(100))
        assert bucket.wait_seconds() == 0.0

    def test_bad_burst_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.0)

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.allow("team-a")
        assert not limiter.allow("team-a")
        assert limiter.allow("team-b")  # fresh bucket, unaffected
        assert limiter.retry_after("team-a") == pytest.approx(1.0)
        assert limiter.retry_after("team-b") == pytest.approx(1.0)

    def test_retry_after_never_advertises_zero(self):
        """Regression: ``Retry-After: 0`` invites an immediate-retry loop.

        If the bucket refills between the 429 and the hint probe (or the
        deficit is sub-second), ``wait_seconds`` is legitimately ~0 —
        but the header must still clamp to >= 1 second.
        """
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.allow("team-a")
        assert not limiter.allow("team-a")
        clock.now = 5.0  # refilled before the hint was computed
        assert limiter._bucket("team-a").wait_seconds() == 0.0
        assert limiter.retry_after("team-a") == 1.0

    def test_retry_after_subsecond_deficit_rounds_up(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=10.0, burst=1.0, clock=clock)
        assert limiter.allow("fast-tenant")
        # Deficit of one token at 10 tokens/s -> 0.1 s raw wait.
        assert limiter._bucket("fast-tenant").wait_seconds() == pytest.approx(0.1)
        assert limiter.retry_after("fast-tenant") == 1.0

    def test_retry_after_preserves_long_waits(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=0.25, burst=1.0, clock=clock)
        assert limiter.allow("slow-tenant")
        assert limiter.retry_after("slow-tenant") == pytest.approx(4.0)


# ------------------------------------------------------------------ #
# Stores
# ------------------------------------------------------------------ #


class TestReportStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        fp = "ab" + "0" * 62
        assert store.get(fp) is None
        path = store.put(fp, '{"x": 1}')
        assert path.parent.name == "ab"  # prefix shard
        assert store.get(fp) == '{"x": 1}'
        assert fp in store
        assert not any(p.name.startswith(".tmp") for p in path.parent.iterdir())

    def test_shard_accounting(self, tmp_path):
        store = ReportStore(tmp_path / "reports")
        store.put("ab" + "0" * 62, "{}")
        store.put("ab" + "1" * 62, "{}")
        store.put("cd" + "0" * 62, "{}")
        assert store.shard_counts() == {"ab": 2, "cd": 1}
        assert len(list(store.fingerprints())) == 3

    def test_module_shard_counts(self):
        counts = shard_counts(["a1", "a2", "b3"], buckets=16)
        assert counts == {"a": 2, "b": 1}
        wide = shard_counts(["a1", "a2", "b3"], buckets=256)
        assert wide == {"a1": 1, "a2": 1, "b3": 1}
        with pytest.raises(ValueError, match="16 or 256"):
            shard_counts([], buckets=8)

    def test_cache_stats_over_run_cache(self, isolated_cache):
        runner.run_benchmark("gcc", SystemConfig(), 2_000, mode="missrate")
        stats = cache_stats()
        assert stats["entries"] == 1
        assert sum(stats["shards"].values()) == 1

    def test_cache_stats_disabled_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert cache_stats() == {"entries": 0, "shards": {}}


class TestAtomicCacheWrites:
    def test_interleaved_writers_never_tear(self, isolated_cache):
        """Two writers hammering one key must never expose a torn entry:
        the final path only ever holds a complete JSON document, and no
        temp siblings leak."""
        result = runner.run_benchmark("gcc", SystemConfig(), 2_000, mode="missrate")
        key = "deadbeef" * 8
        path = isolated_cache / f"{key}.json"
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                runner._store_disk(key, result)

        def reader():
            while not stop.is_set():
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        json.load(handle)
                except FileNotFoundError:
                    continue  # before the first publish
                except ValueError as error:  # torn read
                    torn.append(str(error))

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join()

        assert torn == []
        assert runner._load_disk(key) is not None
        strays = [p for p in isolated_cache.iterdir() if p.name.startswith(".tmp")]
        assert strays == []


# ------------------------------------------------------------------ #
# Job execution
# ------------------------------------------------------------------ #


def _cli_output(argv, cache_dir):
    process = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={
            "PYTHONPATH": "src",
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(cache_dir),
        },
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestExecuteJob:
    def test_sweep_report_matches_cli_bytes(self, isolated_cache):
        spec = parse_job_request(
            {"kind": "sweep", "benchmarks": ["gcc", "swim"], "instructions": 4_000}
        )
        outcome = execute_job(spec)
        expected = _cli_output(
            ["sweep", "--benchmarks", "gcc,swim", "--instructions", "4000",
             "--json"],
            isolated_cache,
        )
        assert outcome.text + "\n" == expected
        assert outcome.runs_done == 4  # 2 benchmarks x (point + baseline)
        assert outcome.cache_hits == 0

    def test_experiment_report_matches_cli_bytes(self, isolated_cache):
        spec = parse_job_request(
            {"kind": "experiment", "experiments": ["table4"],
             "benchmarks": ["gcc", "swim"], "instructions": 6_000}
        )
        outcome = execute_job(spec)
        # Same work through the CLI: REPRO_SCALE 0.1 x 60k default = 6k.
        process = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table4", "--json"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "REPRO_CACHE_DIR": str(isolated_cache),
                 "REPRO_SCALE": "0.1",
                 "REPRO_BENCHMARKS": "gcc,swim"},
        )
        assert process.returncode == 0, process.stderr
        assert outcome.text + "\n" == process.stdout

    def test_progress_sink_sees_every_run(self, isolated_cache):
        spec = parse_job_request(
            {"kind": "sweep", "benchmarks": ["gcc"], "instructions": 4_000}
        )
        events = []
        cold = execute_job(spec, progress=events.append)
        assert [e.runs_done for e in events] == [1, 2]
        assert all(not e.cache_hit for e in events)
        assert all(e.seconds >= 0 for e in events)
        assert cold.runs_done == 2 and cold.cache_hits == 0

        events.clear()
        warm = execute_job(spec, progress=events.append)
        assert warm.text == cold.text
        assert warm.cache_hits == 2
        assert all(e.cache_hit for e in events)


# ------------------------------------------------------------------ #
# Dynamic policies: the interval field and the dynamic experiment
# ------------------------------------------------------------------ #


class TestIntervalProtocol:
    def test_interval_defaults_to_zero(self):
        assert parse_job_request({"kind": "sweep", "benchmarks": ["gcc"]}).interval == 0
        assert parse_job_request(
            {"kind": "experiment", "experiments": ["table4"]}
        ).interval == 0

    def test_interval_parses_on_both_kinds(self):
        sweep = parse_job_request(
            {"kind": "sweep", "benchmarks": ["gcc"], "interval": 128})
        assert sweep.interval == 128
        experiment = parse_job_request(
            {"kind": "experiment", "experiments": ["dynamic"], "interval": 128})
        assert experiment.interval == 128

    def test_interval_rejects_negative_and_non_int(self):
        for bad in (-1, True, "128"):
            with pytest.raises(ProtocolError, match="interval"):
                parse_job_request(
                    {"kind": "sweep", "benchmarks": ["gcc"], "interval": bad})

    def test_interval_shapes_the_fingerprint(self):
        base = parse_job_request({"kind": "sweep", "benchmarks": ["gcc"]})
        ticked = parse_job_request(
            {"kind": "sweep", "benchmarks": ["gcc"], "interval": 64})
        assert canonical_payload(ticked)["interval"] == 64
        assert fingerprint(base) != fingerprint(ticked)

    def test_dynamic_experiment_admits_trace_refs(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        write_trace(path, generate_trace("gcc", 100))
        ref = f"trace://{path}#csv"
        spec = parse_job_request(
            {"kind": "experiment", "experiments": ["dynamic"],
             "benchmarks": [ref], "interval": 50})
        assert spec.benchmarks == (ref,)
        # Profile-table experiments still reject file-backed workloads.
        with pytest.raises(ProtocolError, match="unknown benchmark"):
            parse_job_request(
                {"kind": "experiment", "experiments": ["table4", "dynamic"],
                 "benchmarks": [ref]})


class TestDynamicExperimentJob:
    def test_report_matches_cli_bytes_on_sample_traces(self, isolated_cache):
        """The acceptance criterion: the dynamic experiment over both
        committed sample traces produces byte-identical reports via the
        service and the CLI."""
        data = Path(__file__).resolve().parent / "data"
        refs = [f"trace://{data / 'sample.din'}#din",
                f"trace://{data / 'sample.csv.gz'}#csv"]
        spec = parse_job_request(
            {"kind": "experiment", "experiments": ["dynamic"],
             "benchmarks": refs, "instructions": 6_000, "interval": 300})
        outcome = execute_job(spec)
        process = subprocess.run(
            [sys.executable, "-m", "repro.cli", "dynamic",
             "--interval", "300", "--json"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "REPRO_CACHE_DIR": str(isolated_cache),
                 "REPRO_SCALE": "0.1",
                 "REPRO_BENCHMARKS": ",".join(refs)},
        )
        assert process.returncode == 0, process.stderr
        assert outcome.text + "\n" == process.stdout
        rows = json.loads(outcome.text)[0]["rows"]
        assert any(row["ticks"] > 0 for row in rows)

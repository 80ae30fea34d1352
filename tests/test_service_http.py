"""End-to-end service tests: HTTP API, streaming, back-pressure, resume."""

import http.client
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service.jobs
from repro.service.app import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue
from repro.sim import runner

REPO_ROOT = Path(__file__).resolve().parent.parent

SMALL_SWEEP = {"kind": "sweep", "benchmarks": ["gcc"], "instructions": 4_000}


def wait_until(predicate, timeout: float = 10.0, poll: float = 0.02) -> bool:
    """Spin until ``predicate()`` is true."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    runner.clear_caches()
    yield tmp_path / "cache"
    runner.clear_caches()


def service_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        port=0,
        db_path=tmp_path / "jobs.sqlite",
        reports_dir=tmp_path / "reports",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture
def service(tmp_path, isolated_cache):
    with ServiceThread(service_config(tmp_path)) as handle:
        yield handle


def raw_request(port, method, path, body=None, headers=None):
    """A raw HTTP exchange, for malformed bodies and header assertions."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


class TestHappyPath:
    def test_submit_stream_report_matches_cli(self, service, isolated_cache):
        client = ServiceClient(port=service.port)
        assert client.healthy()

        events = []
        text = client.submit_and_wait(SMALL_SWEEP, on_event=events.append,
                                      timeout=120)

        kinds = [event["event"] for event in events]
        assert kinds[0] == "snapshot"
        assert kinds[-1] == "done"
        runs = [event for event in events if event["event"] == "run"]
        assert [event["runs_done"] for event in runs] == [1, 2]
        assert all(event["sweep_total"] == 2 for event in runs)
        assert all("benchmark" in event and "seconds" in event for event in runs)

        process = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "--benchmarks", "gcc",
             "--instructions", "4000", "--json"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "REPRO_CACHE_DIR": str(isolated_cache)},
        )
        assert process.returncode == 0, process.stderr
        assert text + "\n" == process.stdout

    def test_duplicate_submission_coalesces(self, service):
        client = ServiceClient(port=service.port)
        first = client.submit(SMALL_SWEEP)
        assert not first["coalesced"]
        second = client.submit(SMALL_SWEEP)
        assert second["coalesced"]
        assert second["job"]["id"] == first["job"]["id"]

        client.wait(first["job"]["id"], timeout=120)
        # Resubmitting a finished job coalesces too — and is served warm.
        third = client.submit(SMALL_SWEEP)
        assert third["coalesced"] and third["job"]["state"] == "done"
        assert client.report_text(third["job"]["id"])

    def test_events_after_completion_are_a_terminal_snapshot(self, service):
        client = ServiceClient(port=service.port)
        job_id = client.submit(SMALL_SWEEP)["job"]["id"]
        client.wait(job_id, timeout=120)
        events = list(client.events(job_id))
        assert len(events) == 1
        assert events[0]["event"] == "snapshot"
        assert events[0]["job"]["state"] == "done"

    def test_jobs_listing_and_stats(self, service):
        client = ServiceClient(port=service.port)
        job_id = client.submit(SMALL_SWEEP)["job"]["id"]
        client.wait(job_id, timeout=120)
        listed = client.jobs()["jobs"]
        assert [job["id"] for job in listed] == [job_id]
        stats = client.stats()
        assert stats["queue"]["done"] == 1
        assert sum(stats["reports"].values()) == 1
        assert stats["run_cache"]["entries"] == 2  # point + baseline runs
        assert set(stats["artifacts"]) == {"loads", "stores", "files", "bytes"}
        assert stats["config"]["compact_after"] is None


class TestCompaction:
    def test_periodic_compaction_drops_finished_jobs(self, tmp_path,
                                                     isolated_cache):
        config = service_config(tmp_path, compact_after=0.2)
        with ServiceThread(config) as handle:
            client = ServiceClient(port=handle.port)
            job = client.submit(SMALL_SWEEP)["job"]
            job_id, fingerprint = job["id"], job["fingerprint"]
            client.wait(job_id, timeout=120)
            assert wait_until(
                lambda: client.jobs()["jobs"] == [], timeout=30.0
            ), "compactor never removed the finished job"
            with pytest.raises(ServiceError) as caught:
                client.job(job_id)
            assert caught.value.status == 404
            # Compaction drops queue history only: the report survives
            # in the sharded store and the runs in the result cache.
            assert handle.service.store.get(fingerprint) is not None
            assert client.stats()["config"]["compact_after"] == 0.2

    def test_compact_now_prunes_journals_with_rows(self, tmp_path,
                                                   isolated_cache):
        with ServiceThread(service_config(tmp_path)) as handle:
            client = ServiceClient(port=handle.port)
            job_id = client.submit(SMALL_SWEEP)["job"]["id"]
            client.wait(job_id, timeout=120)
            assert job_id in handle.service._journals
            # No horizon configured: compact_now treats it as "now".
            assert handle.service.compact_now() == [job_id]
            assert job_id not in handle.service._journals
            assert client.jobs()["jobs"] == []


class TestErrorPaths:
    def test_malformed_json_is_400(self, service):
        status, _, payload = raw_request(service.port, "POST", "/jobs",
                                         body=b"{not json")
        assert status == 400
        assert "invalid JSON body" in json.loads(payload)["error"]

    @pytest.mark.parametrize(
        "request_body, match",
        [
            ({"kind": "sweep", "bogus": 1}, "unknown field"),
            ({"kind": "sweep", "benchmarks": ["nope"]}, "unknown benchmark"),
            ({"kind": "nope"}, "unknown job kind"),
            ([1, 2, 3], "JSON object"),
        ],
    )
    def test_invalid_request_is_400_with_reason(self, service, request_body, match):
        client = ServiceClient(port=service.port)
        with pytest.raises(ServiceError) as caught:
            client.submit(request_body)
        assert caught.value.status == 400
        assert match in caught.value.reason

    def test_unknown_job_is_404(self, service):
        client = ServiceClient(port=service.port)
        for probe in (client.job, client.report_text,
                      lambda job_id: list(client.events(job_id))):
            with pytest.raises(ServiceError) as caught:
                probe("0" * 16)
            assert caught.value.status == 404

    def test_unknown_route_is_404_and_bad_method_is_405(self, service):
        status, _, _ = raw_request(service.port, "GET", "/nope")
        assert status == 404
        status, _, _ = raw_request(service.port, "DELETE", "/jobs")
        assert status == 405

    def test_oversized_body_is_413(self, tmp_path, isolated_cache):
        config = service_config(tmp_path, max_body_bytes=64)
        with ServiceThread(config) as handle:
            status, _, payload = raw_request(
                handle.port, "POST", "/jobs",
                body=json.dumps({"benchmarks": ["gcc"] * 100}).encode(),
            )
            assert status == 413
            assert "64 bytes" in json.loads(payload)["error"]

    def test_report_before_done_is_409(self, service, monkeypatch):
        release = threading.Event()

        def blocking(spec, jobs=1, progress=None):
            release.wait(timeout=30)
            raise RuntimeError("released")

        monkeypatch.setattr(repro.service.jobs, "execute_job", blocking)
        client = ServiceClient(port=service.port)
        job_id = client.submit(SMALL_SWEEP)["job"]["id"]
        try:
            with pytest.raises(ServiceError) as caught:
                client.report_text(job_id)
            assert caught.value.status == 409
            assert "not done" in caught.value.reason
        finally:
            release.set()

    def test_worker_exception_fails_job_with_detail(self, service, monkeypatch):
        def exploding(spec, jobs=1, progress=None):
            raise RuntimeError("simulation exploded mid-run")

        monkeypatch.setattr(repro.service.jobs, "execute_job", exploding)
        client = ServiceClient(port=service.port)
        job_id = client.submit(SMALL_SWEEP)["job"]["id"]
        final = client.wait(job_id, timeout=30)
        assert final["state"] == "failed"
        assert final["error"] == "RuntimeError: simulation exploded mid-run"

        with pytest.raises(ServiceError) as caught:
            client.report_text(job_id)
        assert caught.value.status == 409
        assert "simulation exploded" in caught.value.reason

        with pytest.raises(ServiceError) as caught:
            client.submit_and_wait(SMALL_SWEEP, timeout=30)
        assert caught.value.status == 500


class TestBackPressure:
    def test_rate_limit_is_429_with_retry_after(self, tmp_path, isolated_cache):
        config = service_config(tmp_path, rate=0.001, burst=1.0)
        with ServiceThread(config) as handle:
            client = ServiceClient(port=handle.port)
            client.submit(SMALL_SWEEP)  # consumes the only token
            with pytest.raises(ServiceError) as caught:
                client.submit(SMALL_SWEEP)
            assert caught.value.status == 429
            assert "rate limit" in caught.value.reason

            status, headers, _ = raw_request(
                handle.port, "POST", "/jobs", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1

            # Another tenant has its own bucket.
            other = ServiceClient(port=handle.port, tenant="team-b")
            assert other.submit(SMALL_SWEEP)["coalesced"]

    def test_full_queue_is_503(self, tmp_path, isolated_cache):
        config = service_config(tmp_path, max_queue=0)
        with ServiceThread(config) as handle:
            client = ServiceClient(port=handle.port)
            with pytest.raises(ServiceError) as caught:
                client.submit(SMALL_SWEEP)
            assert caught.value.status == 503
            assert "queue full" in caught.value.reason


class TestResume:
    def test_stop_midjob_requeues_and_new_service_finishes(
        self, tmp_path, isolated_cache
    ):
        started = threading.Event()
        release = threading.Event()

        def blocking(spec, jobs=1, progress=None):
            started.set()
            release.wait(timeout=30)
            raise RuntimeError("interrupted")

        # Patched by hand (not via monkeypatch) so it can be restored
        # mid-test without undoing the cache isolation env vars.
        original = repro.service.jobs.execute_job
        repro.service.jobs.execute_job = blocking
        first = ServiceThread(service_config(tmp_path)).start()
        close = first.service.queue.close

        def close_then_release():
            # stop() waits for the job's thread, so free it once the
            # queue is closed rather than at its 30 s timeout.
            close()
            release.set()

        first.service.queue.close = close_then_release
        try:
            client = ServiceClient(port=first.port)
            job_id = client.submit(SMALL_SWEEP)["job"]["id"]
            assert started.wait(timeout=30)
        finally:
            first.stop()  # worker cancelled mid-execution, like a crash
            release.set()
            repro.service.jobs.execute_job = original

        journal = JobQueue(tmp_path / "jobs.sqlite")
        assert journal.get(job_id).state == "running"  # left mid-flight
        journal.close()

        with ServiceThread(service_config(tmp_path)) as second:
            assert [job.id for job in second.service.recovered] == [job_id]
            client = ServiceClient(port=second.port)
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert client.report_text(job_id)

    def test_completed_runs_resolve_from_cache_after_resume(
        self, tmp_path, isolated_cache
    ):
        # Warm exactly one of the job's runs, as if the first service
        # life completed it before dying: the resumed job must count it
        # as a cache hit rather than re-simulating.
        from repro.sim.config import SystemConfig

        runner.run_benchmark("gcc", SystemConfig(), 4_000)
        runner.clear_caches()  # keep only the disk entry, like a new process
        with ServiceThread(service_config(tmp_path)) as handle:
            client = ServiceClient(port=handle.port)
            job_id = client.submit(SMALL_SWEEP)["job"]["id"]
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["runs_done"] == 2
            assert final["cache_hits"] == 1


class TestShutdown:
    def test_progress_after_stop_touches_no_closed_queue(
        self, tmp_path, isolated_cache, caplog
    ):
        """A cancelled job's thread keeps reporting after ``stop()`` closed
        the queue; the service drops those events instead of logging a
        closed-database error from the event loop."""
        from repro.service.jobs import RunProgress
        from repro.sim.config import SystemConfig
        from repro.sweep.spec import RunSpec

        started = threading.Event()
        closed = threading.Event()

        def reporting(spec, jobs=1, progress=None):
            started.set()
            closed.wait(timeout=30)
            progress(RunProgress(
                runs_done=1, sweep_done=1, sweep_total=2, cache_hits=0,
                spec=RunSpec("gcc", SystemConfig(), 4_000), cache_hit=False,
                seconds=0.0,
            ))

        original = repro.service.jobs.execute_job
        repro.service.jobs.execute_job = reporting
        handle = ServiceThread(service_config(tmp_path)).start()
        close = handle.service.queue.close

        def close_then_release():
            close()
            closed.set()

        handle.service.queue.close = close_then_release
        try:
            ServiceClient(port=handle.port).submit(SMALL_SWEEP)
            assert started.wait(timeout=30)
        finally:
            handle.stop()  # the job's thread reports once the queue is closed
            closed.set()
            repro.service.jobs.execute_job = original
        errors = [record.getMessage() for record in caplog.records
                  if record.name == "asyncio" and record.levelno >= logging.ERROR]
        assert not errors, errors


@pytest.mark.slow
class TestServeSubprocess:
    def test_kill_and_restart_resumes_without_rerunning(self, tmp_path):
        """The acceptance path: SIGKILL the server mid-sweep, restart it,
        and watch the job finish with the pre-kill runs served from the
        shared disk cache."""
        env = {
            "PYTHONPATH": "src",
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        }
        argv = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--db", str(tmp_path / "jobs.sqlite"),
            "--reports-dir", str(tmp_path / "reports"),
        ]

        def launch():
            process = subprocess.Popen(
                argv, cwd=REPO_ROOT, env=env,
                stdout=subprocess.PIPE, text=True,
            )
            banner = process.stdout.readline()
            assert banner.startswith("serving on http://"), banner
            return process, int(banner.rstrip().rsplit(":", 1)[1])

        request = {
            "kind": "sweep",
            "benchmarks": ["gcc", "swim"],
            "instructions": 30_000,  # ~0.5s/run: kill lands mid-sweep
        }
        server, port = launch()
        try:
            client = ServiceClient(port=port)
            job_id = client.submit(request)["job"]["id"]
            for event in client.events(job_id):
                if event["event"] == "run":  # first run done and cached
                    break
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=10)
            server.stdout.close()

            server, port = launch()
            client = ServiceClient(port=port)
            final = client.wait(job_id, timeout=180)
            assert final["state"] == "done"
            assert final["runs_done"] == 4
            assert final["cache_hits"] >= 1  # pre-kill work not repeated
            assert client.report_text(job_id)
        finally:
            server.kill()
            server.wait(timeout=10)
            server.stdout.close()


class TestWaitUntil:
    def test_wait_until_polls_predicate(self):
        flag = {"ready": False}

        def arm():
            time.sleep(0.05)
            flag["ready"] = True

        threading.Thread(target=arm).start()
        assert wait_until(lambda: flag["ready"], timeout=5.0)
        assert not wait_until(lambda: False, timeout=0.05)

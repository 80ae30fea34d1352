"""The sweep service: an asyncio HTTP/JSON job API over the sweep engine.

Pure stdlib — the server is ``asyncio.start_server`` plus a minimal
HTTP/1.1 layer (one request per connection, ``Connection: close``), so
the library gains a deployable front end without a single new
dependency.

Endpoints:

======================  ======================================================
``POST /jobs``          submit a job (idempotent by content fingerprint);
                        202 created / 200 coalesced / 400 malformed /
                        429 rate-limited / 503 queue full
``GET /jobs``           recent jobs, newest first
``GET /jobs/<id>``      one job's status document
``GET /jobs/<id>/report``  the finished report (byte-identical to the CLI);
                        409 until the job is done
``GET /jobs/<id>/events``  newline-delimited JSON progress stream: a
                        ``snapshot`` of the job, then ``started``, one
                        ``run`` event per completed run (cache hits
                        included, per-run wall timings), then
                        ``done``/``failed``; a job already finished gets
                        the snapshot alone
``GET /healthz``        liveness probe
``GET /stats``          queue counts, report/run-cache shard occupancy,
                        encoded-trace artifact cache activity
======================  ======================================================

Architecture: submissions land in the SQLite-journaled
:class:`~repro.service.queue.JobQueue`; ``workers`` asyncio tasks drain
it, each executing one job at a time in a thread
(:func:`~repro.service.jobs.execute_job`, whose engine fans out over
the ProcessPoolExecutor worker tier when ``engine_jobs > 1``).  Per-run
results publish into the shared schema-versioned disk cache as they
complete, reports into the prefix-sharded
:class:`~repro.service.store.ReportStore` — so a service killed
mid-job resumes on restart (``running`` jobs re-queue) and re-executes
only the runs the cache does not already hold.

Each event is pushed to the job's open streams as soon as it is
published: publishing wakes them.  A stream that has been idle for a
second re-reads the queue, so a job finished by another shard sharing
the SQLite journal (or in an earlier life of this process), which
publishes nothing here, still closes with a ``synthesized`` terminal
line.

:class:`ServiceThread` embeds the whole service in a background thread
for tests, benchmarks, and notebooks.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service import jobs as jobs_module
from repro.service.limits import RateLimiter
from repro.sim import runner
from repro.service.protocol import (
    ProtocolError,
    canonical_payload,
    fingerprint,
    parse_job_request,
)
from repro.service.queue import ID_LENGTH, JobQueue, JobRecord
from repro.service.store import ReportStore, cache_stats

__all__ = ["ServiceConfig", "ServiceThread", "SweepService", "serve"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: After this much idle streaming, re-check the queue for a terminal
#: state no event announced (a job finished by another shard or by an
#: earlier life of this process).
_STREAM_IDLE_RECHECK = 1.0
_TERMINAL = ("done", "failed")


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs for one service shard.

    Attributes:
        host/port: listen address (port 0 = ephemeral, see
            :attr:`SweepService.port` once started).
        db_path: SQLite job journal (shared by shards of one store).
        reports_dir: root of the sharded report store.
        engine_jobs: worker processes per executing sweep (the
            ProcessPoolExecutor fan-out; 1 = in-process serial).
        workers: concurrently executing jobs (asyncio worker tasks).
        rate/burst: per-tenant token-bucket submission limits
            (``rate <= 0`` disables rate limiting).
        max_queue: bound on open (queued + running) jobs; submissions
            beyond it are rejected with 503.
        max_body_bytes: submission body size bound (413 beyond it).
        compact_after: journal compaction horizon in seconds — terminal
            (done/failed) jobs older than this are periodically deleted
            from the queue, with their in-memory event journals pruned
            alongside.  ``None`` (the default) disables compaction.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    db_path: Path = field(default_factory=lambda: Path(".repro_service/jobs.sqlite"))
    reports_dir: Path = field(default_factory=lambda: Path(".repro_service/reports"))
    engine_jobs: int = 1
    workers: int = 1
    rate: float = 10.0
    burst: float = 20.0
    max_queue: int = 64
    max_body_bytes: int = 1_000_000
    compact_after: Optional[float] = None


@dataclass
class _Journal:
    """One job's published events and the wake-up of its streams.

    Each publish sets ``published`` and puts a fresh event in its place.
    A stream takes the current event right after sending everything in
    ``events`` and waits on it.  No event is ever cleared, so no stream
    can clear away a wake-up that another stream has yet to see.
    """

    events: List[Dict[str, Any]] = field(default_factory=list)
    published: asyncio.Event = field(default_factory=asyncio.Event)


class SweepService:
    """One service shard: HTTP front end + queue + worker tasks."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.queue = JobQueue(self.config.db_path)
        self.store = ReportStore(self.config.reports_dir)
        self.limits = RateLimiter(self.config.rate, self.config.burst)
        self.port: Optional[int] = None
        self.recovered: List[JobRecord] = []
        self._journals: Dict[str, _Journal] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: List[asyncio.Task] = []
        self._compactor: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._stopped = False

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    async def start(self) -> None:
        """Recover the queue, bind the socket, launch the worker tier."""
        self.recovered = self.queue.recover()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.create_task(self._worker(), name=f"sweep-worker-{index}")
            for index in range(max(1, self.config.workers))
        ]
        if self.config.compact_after is not None:
            self._compactor = asyncio.create_task(
                self._compact_loop(), name="journal-compactor"
            )
        self._wake.set()  # recovered jobs need no new submission to run

    async def stop(self) -> None:
        """Cancel workers and close the socket (running jobs re-queue on
        the next start, exactly like a crash)."""
        tasks = list(self._workers)
        if self._compactor is not None:
            tasks.append(self._compactor)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._compactor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # A cancelled job's thread runs on and keeps posting progress;
        # _publish drops it from here on, so nothing touches the closed
        # queue (the job stays ``running`` and re-queues on restart).
        self._stopped = True
        self.queue.close()

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``repro serve`` foreground path)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -------------------------------------------------------------- #
    # Worker tier
    # -------------------------------------------------------------- #

    async def _compact_loop(self) -> None:
        """Periodically drop terminal journal rows past the horizon.

        Runs at min(horizon, 60 s) so tests (and short horizons) see
        compaction promptly without the queue churning for long ones.
        """
        period = max(0.05, min(self.config.compact_after, 60.0))
        while True:
            await asyncio.sleep(period)
            self.compact_now()

    def compact_now(self) -> List[str]:
        """One compaction pass: queue rows plus their event journals."""
        removed = self.queue.compact(self.config.compact_after or 0.0)
        for job_id in removed:
            self._journals.pop(job_id, None)
        return removed

    async def _worker(self) -> None:
        while True:
            job = self.queue.claim()
            if job is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
                continue
            await self._run_job(job)

    async def _run_job(self, job: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        try:
            # Re-validated at execution time: the journal may hold jobs
            # whose workloads/plugins vanished since submission.
            spec = parse_job_request(job.request)
        except ProtocolError as error:
            self.queue.fail(job.id, str(error))
            self._publish(job.id, {"event": "failed", "job": job.id,
                                   "error": str(error)})
            return
        self._publish(job.id, {"event": "started", "job": job.id,
                               "kind": job.kind, "tenant": job.tenant})

        def sink(progress: jobs_module.RunProgress) -> None:
            # Runs on the executing thread; hop to the loop to publish.
            event = {
                "event": "run",
                "job": job.id,
                "runs_done": progress.runs_done,
                "sweep_done": progress.sweep_done,
                "sweep_total": progress.sweep_total,
                "cache_hits": progress.cache_hits,
                "cache_hit": progress.cache_hit,
                "benchmark": progress.spec.benchmark,
                "config": progress.spec.config.describe(),
                "mode": progress.spec.mode,
                "seconds": round(progress.seconds, 6),
            }
            loop.call_soon_threadsafe(self._publish, job.id, event)

        try:
            outcome = await asyncio.to_thread(
                jobs_module.execute_job, spec, self.config.engine_jobs, sink
            )
        except Exception as error:  # noqa: BLE001 - error detail is the API
            detail = f"{type(error).__name__}: {error}"
            self.queue.fail(job.id, detail)
            self._publish(job.id, {"event": "failed", "job": job.id,
                                   "error": detail.splitlines()[0]})
            return
        self.store.put(job.fingerprint, outcome.text)
        self.queue.finish(job.id, outcome.runs_done, outcome.cache_hits)
        self._publish(
            job.id,
            {
                "event": "done",
                "job": job.id,
                "runs_done": outcome.runs_done,
                "cache_hits": outcome.cache_hits,
                "wall_seconds": round(outcome.wall_seconds, 3),
            },
        )

    def _journal(self, job_id: str) -> _Journal:
        journal = self._journals.get(job_id)
        if journal is None:
            journal = self._journals[job_id] = _Journal()
        return journal

    def _publish(self, job_id: str, event: Dict[str, Any]) -> None:
        # Always on the event loop (run events hop here through
        # call_soon_threadsafe), so waking the job's streams is safe.
        if self._stopped:
            return
        journal = self._journal(job_id)
        journal.events.append(event)
        journal.published.set()
        journal.published = asyncio.Event()
        if event.get("event") == "run":
            self.queue.record_progress(
                job_id, event["runs_done"], event["cache_hits"]
            )

    # -------------------------------------------------------------- #
    # HTTP layer
    # -------------------------------------------------------------- #

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                return await self._send_json(
                    writer, 400, {"error": "malformed request line"}
                )
            method, target, _version = parts
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                return await self._send_json(
                    writer, 400, {"error": "malformed Content-Length header"}
                )
            if length > self.config.max_body_bytes:
                return await self._send_json(
                    writer, 413,
                    {"error": f"request body over {self.config.max_body_bytes} bytes"},
                )
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target, headers, body, writer)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = target.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        if path == "/healthz" and method == "GET":
            return await self._send_json(writer, 200, {"ok": True})
        if path == "/stats" and method == "GET":
            return await self._send_json(writer, 200, self._stats())
        if path == "/jobs":
            if method == "POST":
                return await self._submit(headers, body, writer)
            if method == "GET":
                return await self._send_json(
                    writer, 200,
                    {"jobs": [job.to_document() for job in self.queue.list_jobs()]},
                )
            return await self._send_json(
                writer, 405, {"error": f"method {method} not allowed on {path}"}
            )
        if len(parts) >= 2 and parts[0] == "jobs":
            if method != "GET":
                return await self._send_json(
                    writer, 405, {"error": f"method {method} not allowed on {path}"}
                )
            job = self.queue.get(parts[1])
            if job is None:
                return await self._send_json(
                    writer, 404, {"error": f"unknown job {parts[1]!r}"}
                )
            if len(parts) == 2:
                return await self._send_json(writer, 200, job.to_document())
            if len(parts) == 3 and parts[2] == "report":
                return await self._report(job, writer)
            if len(parts) == 3 and parts[2] == "events":
                return await self._stream_events(job, writer)
        await self._send_json(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    def _stats(self) -> Dict[str, Any]:
        return {
            "queue": self.queue.counts(),
            "depth": self.queue.depth(),
            "reports": self.store.shard_counts(),
            "run_cache": cache_stats(),
            "artifacts": runner.artifact_stats(),
            "config": {
                "engine_jobs": self.config.engine_jobs,
                "workers": self.config.workers,
                "rate": self.config.rate,
                "burst": self.config.burst,
                "max_queue": self.config.max_queue,
                "compact_after": self.config.compact_after,
            },
        }

    async def _submit(
        self, headers: Dict[str, str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        tenant = headers.get("x-repro-tenant", "public") or "public"
        if not self.limits.allow(tenant):
            retry = max(1, round(self.limits.retry_after(tenant)))
            return await self._send_json(
                writer, 429,
                {"error": f"rate limit exceeded for tenant {tenant!r}"},
                extra_headers=((f"Retry-After: {retry}"),),
            )
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return await self._send_json(
                writer, 400, {"error": f"invalid JSON body: {error}"}
            )
        try:
            spec = parse_job_request(data)
            job_fingerprint = fingerprint(spec)
        except ProtocolError as error:
            return await self._send_json(writer, 400, {"error": str(error)})
        except ValueError as error:  # workload vanished mid-validation
            return await self._send_json(writer, 400, {"error": str(error)})

        existing = self.queue.get(job_fingerprint[:ID_LENGTH])
        would_create = existing is None or existing.state == "failed"
        if would_create and self.queue.depth() >= self.config.max_queue:
            return await self._send_json(
                writer, 503,
                {"error": f"queue full ({self.queue.depth()} open jobs)"},
                extra_headers=("Retry-After: 5",),
            )
        record, created = self.queue.submit(
            job_fingerprint, spec.kind, canonical_payload(spec), tenant
        )
        if created:
            self._journals[record.id] = _Journal()
            self._wake.set()
        await self._send_json(
            writer, 202 if created else 200,
            {"job": record.to_document(), "coalesced": not created},
        )

    async def _report(self, job: JobRecord, writer: asyncio.StreamWriter) -> None:
        if job.state != "done":
            detail = f" ({job.error})" if job.state == "failed" and job.error else ""
            return await self._send_json(
                writer, 409,
                {"error": f"job {job.id} not done (state={job.state}{detail})"},
            )
        text = self.store.get(job.fingerprint)
        if text is None:  # pragma: no cover - done implies a stored report
            return await self._send_json(
                writer, 404, {"error": f"report for job {job.id} missing from store"}
            )
        payload = text.encode("utf-8")
        writer.write(
            _head(200)
            + b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n".encode()
            + b"Connection: close\r\n\r\n"
            + payload
        )
        await writer.drain()

    async def _stream_events(
        self, job: JobRecord, writer: asyncio.StreamWriter
    ) -> None:
        # ``job`` was read with no await since, so every event already in
        # the journal is in the snapshot and the stream starts after them.
        # A journal first made after this point holds only newer events.
        journal = self._journals.get(job.id)
        index = len(journal.events) if journal else 0
        writer.write(
            _head(200)
            + b"Content-Type: application/x-ndjson\r\n"
            + b"Cache-Control: no-store\r\n"
            + b"Connection: close\r\n\r\n"
        )

        async def emit(event: Dict[str, Any]) -> None:
            writer.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
            await writer.drain()

        await emit({"event": "snapshot", "job": job.to_document()})
        if job.state in _TERMINAL:
            return
        journal = self._journal(job.id)
        while True:
            while index < len(journal.events):
                event = journal.events[index]
                index += 1
                await emit(event)
                if event.get("event") in _TERMINAL:
                    return
            # No await since the check above, so the event waited on is
            # the one the next publish sets.
            try:
                await asyncio.wait_for(journal.published.wait(),
                                       _STREAM_IDLE_RECHECK)
            except asyncio.TimeoutError:
                current = self.queue.get(job.id)
                if current is None or current.state in _TERMINAL:
                    # Terminal without a journal event (finished by another
                    # shard or an earlier life): synthesize the closing line.
                    await emit({"event": current.state if current else "failed",
                                "job": job.id, "synthesized": True})
                    return

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Dict[str, Any],
        extra_headers: Tuple[str, ...] = (),
    ) -> None:
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        head = _head(status) + b"Content-Type: application/json\r\n"
        for header in extra_headers:
            head += header.encode("latin-1") + b"\r\n"
        head += f"Content-Length: {len(payload)}\r\n".encode()
        head += b"Connection: close\r\n\r\n"
        writer.write(head + payload)
        await writer.drain()


def _head(status: int) -> bytes:
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n".encode()


async def serve(config: ServiceConfig) -> None:
    """Run a service shard in the foreground until cancelled."""
    service = SweepService(config)
    await service.start()
    print(f"serving on http://{config.host}:{service.port}", flush=True)
    if service.recovered:
        recovered = ", ".join(job.id for job in service.recovered)
        print(f"recovered {len(service.recovered)} job(s): {recovered}", flush=True)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


class ServiceThread:
    """A service shard on a daemon thread, for embedding.

    Usage::

        with ServiceThread(ServiceConfig(port=0, ...)) as handle:
            client = ServiceClient(port=handle.port)
            ...

    ``stop()`` (or leaving the ``with`` block) cancels the workers and
    closes the socket; a job executing at that moment stays ``running``
    in the journal and re-queues on the next start — the same semantics
    as a crash, which the restart tests rely on.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig(port=0)
        self.service: Optional[SweepService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        assert self.service is not None and self.service.port is not None
        return self.service.port

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True,
            name="sweep-service",
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error}")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.service = SweepService(self.config)
        try:
            await self.service.start()
        except BaseException as error:  # pragma: no cover - bind failures
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.service.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""Persistent job queue: a crash-safe SQLite journal of submissions.

Every state transition is one committed transaction, so the queue's
on-disk state is consistent at any kill point:

* ``queued -> running`` when a worker claims a job (``claim``);
* ``running -> done`` with accounting (``finish``);
* ``running -> failed`` with a one-line error detail (``fail``);
* ``running -> queued`` again on restart (``recover``) — a job that was
  mid-flight when the process died re-executes from the top, and its
  already-completed runs resolve from the shared disk cache instead of
  re-simulating.

Submission is idempotent: jobs are keyed by the request's content
fingerprint (:func:`repro.service.protocol.fingerprint`), so duplicate
submissions coalesce onto the existing job — unless that job *failed*,
in which case the resubmission re-enqueues it.  The job id is a prefix
of the fingerprint, which is what makes the store shardable: a job's
id, its report file, and (statistically) its runs' cache keys all hash
uniformly, so any prefix partition balances.

The queue object is thread-safe (one connection, one lock): the service
touches it from the event loop while progress updates arrive from the
executing thread.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.service.protocol import JOB_STATES

__all__ = ["JobQueue", "JobRecord"]

#: Job ids are this prefix of the 64-hex-char content fingerprint.
ID_LENGTH = 16

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,
    fingerprint TEXT UNIQUE NOT NULL,
    tenant      TEXT NOT NULL,
    kind        TEXT NOT NULL,
    request     TEXT NOT NULL,
    state       TEXT NOT NULL,
    error       TEXT,
    created     REAL NOT NULL,
    started     REAL,
    finished    REAL,
    runs_done   INTEGER NOT NULL DEFAULT 0,
    cache_hits  INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, created);
"""


@dataclass(frozen=True)
class JobRecord:
    """One queue row, as handed to the service and serialized to clients."""

    id: str
    fingerprint: str
    tenant: str
    kind: str
    request: Dict[str, Any]
    state: str
    error: Optional[str]
    created: float
    started: Optional[float]
    finished: Optional[float]
    runs_done: int
    cache_hits: int

    def to_document(self) -> Dict[str, Any]:
        """JSON-safe status document (what ``GET /jobs/<id>`` returns)."""
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "tenant": self.tenant,
            "kind": self.kind,
            "request": self.request,
            "state": self.state,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "runs_done": self.runs_done,
            "cache_hits": self.cache_hits,
        }


def _record(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        id=row["id"],
        fingerprint=row["fingerprint"],
        tenant=row["tenant"],
        kind=row["kind"],
        request=json.loads(row["request"]),
        state=row["state"],
        error=row["error"],
        created=row["created"],
        started=row["started"],
        finished=row["finished"],
        runs_done=row["runs_done"],
        cache_hits=row["cache_hits"],
    )


class JobQueue:
    """The SQLite-journaled work queue behind one service shard.

    Several processes may share one journal (SQLite serializes writers;
    a 5 s busy timeout absorbs contention) — ``claim`` is atomic, so
    two worker tiers never run the same job.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            self.path, check_same_thread=False, timeout=5.0
        )
        self._connection.row_factory = sqlite3.Row
        with self._lock, self._connection:
            self._connection.executescript(_SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # -------------------------------------------------------------- #
    # Submission
    # -------------------------------------------------------------- #

    def submit(
        self,
        fingerprint: str,
        kind: str,
        request: Dict[str, Any],
        tenant: str = "public",
    ) -> tuple:
        """Enqueue a job, idempotently.

        Returns:
            ``(record, created)`` — ``created`` is False when the
            submission coalesced onto an existing queued/running/done
            job.  A *failed* job is re-enqueued (state back to
            ``queued``, error cleared) and reported as created.
        """
        job_id = fingerprint[:ID_LENGTH]
        now = time.time()
        with self._lock, self._connection:
            row = self._connection.execute(
                "SELECT * FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            if row is not None and row["state"] != "failed":
                return _record(row), False
            if row is not None:  # failed: resubmission retries it
                self._connection.execute(
                    "UPDATE jobs SET state = 'queued', error = NULL,"
                    " started = NULL, finished = NULL, runs_done = 0,"
                    " cache_hits = 0, created = ? WHERE id = ?",
                    (now, job_id),
                )
            else:
                self._connection.execute(
                    "INSERT INTO jobs (id, fingerprint, tenant, kind, request,"
                    " state, created) VALUES (?, ?, ?, ?, ?, 'queued', ?)",
                    (job_id, fingerprint, tenant, kind,
                     json.dumps(request, sort_keys=True), now),
                )
            return self._get_locked(job_id), True

    # -------------------------------------------------------------- #
    # Worker tier
    # -------------------------------------------------------------- #

    def claim(self) -> Optional[JobRecord]:
        """Atomically move the oldest queued job to ``running``."""
        with self._lock, self._connection:
            row = self._connection.execute(
                "SELECT * FROM jobs WHERE state = 'queued'"
                " ORDER BY created, id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            claimed = self._connection.execute(
                "UPDATE jobs SET state = 'running', started = ?"
                " WHERE id = ? AND state = 'queued'",
                (time.time(), row["id"]),
            ).rowcount
            if claimed == 0:  # pragma: no cover - lost a cross-process race
                return None
            return self._get_locked(row["id"])

    def record_progress(self, job_id: str, runs_done: int, cache_hits: int) -> None:
        """Persist live counters (cosmetic: results live in the cache)."""
        with self._lock, self._connection:
            self._connection.execute(
                "UPDATE jobs SET runs_done = ?, cache_hits = ? WHERE id = ?",
                (runs_done, cache_hits, job_id),
            )

    def finish(self, job_id: str, runs_done: int, cache_hits: int) -> None:
        """``running -> done`` with final accounting; other states stay."""
        with self._lock, self._connection:
            self._connection.execute(
                "UPDATE jobs SET state = 'done', finished = ?, runs_done = ?,"
                " cache_hits = ? WHERE id = ? AND state = 'running'",
                (time.time(), runs_done, cache_hits, job_id),
            )

    def fail(self, job_id: str, error: str) -> None:
        """``running -> failed`` with a one-line error detail; other states stay."""
        with self._lock, self._connection:
            self._connection.execute(
                "UPDATE jobs SET state = 'failed', finished = ?, error = ?"
                " WHERE id = ? AND state = 'running'",
                (time.time(), error.splitlines()[0] if error else error, job_id),
            )

    def recover(self) -> List[JobRecord]:
        """Re-enqueue jobs left ``running`` by a dead process (startup).

        The reset clears *every* prior-life field: a job can reach
        ``running`` again after an earlier failed/finished life (resubmit
        of a coalesced fingerprint), so leaving ``error``/``finished``
        behind would present a freshly re-queued job as already failed
        or timestamped-done to status readers.
        """
        with self._lock, self._connection:
            rows = self._connection.execute(
                "SELECT id FROM jobs WHERE state = 'running' ORDER BY created"
            ).fetchall()
            for row in rows:
                self._connection.execute(
                    "UPDATE jobs SET state = 'queued', started = NULL,"
                    " runs_done = 0, cache_hits = 0, error = NULL,"
                    " finished = NULL WHERE id = ?",
                    (row["id"],),
                )
            return [self._get_locked(row["id"]) for row in rows]

    def compact(self, max_age: float) -> List[str]:
        """Delete terminal rows older than ``max_age`` seconds.

        Journal compaction: ``done``/``failed`` rows whose ``finished``
        timestamp is older than the cutoff are removed in one
        transaction — their reports stay in the sharded store and their
        runs in the result cache, so compaction never loses work, only
        queue-status history.  Open (queued/running) jobs are never
        touched.

        Returns:
            The removed job ids (the server prunes its in-memory event
            journals with them).
        """
        cutoff = time.time() - max(0.0, max_age)
        with self._lock, self._connection:
            rows = self._connection.execute(
                "SELECT id FROM jobs WHERE state IN ('done', 'failed')"
                " AND finished IS NOT NULL AND finished < ?",
                (cutoff,),
            ).fetchall()
            removed = [row["id"] for row in rows]
            if removed:
                self._connection.executemany(
                    "DELETE FROM jobs WHERE id = ?",
                    [(job_id,) for job_id in removed],
                )
        return removed

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    def _get_locked(self, job_id: str) -> JobRecord:
        row = self._connection.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:  # pragma: no cover - callers hold a fresh id
            raise KeyError(f"unknown job {job_id!r}")
        return _record(row)

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or ``None``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return None if row is None else _record(row)

    def list_jobs(self, limit: int = 100) -> List[JobRecord]:
        """Most recent jobs, newest first."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM jobs ORDER BY created DESC, id LIMIT ?", (limit,)
            ).fetchall()
        return [_record(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (every state present, zeros included)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def depth(self) -> int:
        """Open (queued + running) jobs — what back-pressure bounds."""
        with self._lock:
            row = self._connection.execute(
                "SELECT COUNT(*) AS n FROM jobs"
                " WHERE state IN ('queued', 'running')"
            ).fetchone()
        return row["n"]

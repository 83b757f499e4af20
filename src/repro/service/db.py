"""The sqlite-backed service registry: jobs and results.

One database file holds everything the service remembers across restarts:

* ``jobs`` — the persistent job queue with its state machine,
* ``results`` — content-addressed result bodies; two tenants submitting
  identical work share one row here, which is what makes duplicate
  submissions free.

Concurrency model: every thread gets its own connection (sqlite
connections are not thread-safe; :class:`ServiceDB` keeps them in
thread-local storage) in WAL mode with a busy timeout, and every
read-modify-write runs inside ``BEGIN IMMEDIATE`` so concurrent daemon
workers serialize on the write lock.  :meth:`ServiceDB.claim_next` is a
single guarded ``UPDATE ... RETURNING``: a job can never be claimed twice.

State machine (enforced twice — a CHECK constraint rejects unknown states,
and every transition is a guarded ``UPDATE ... WHERE status = ?`` whose
rowcount is checked):

    pending ──claim──▶ running ──▶ done
       ▲                  │
       └──requeue/recover─┴──▶ failed ──requeue──▶ pending

Corruption safety: opening a truncated or garbage database file raises a
typed :class:`RegistryCorruptError` immediately (``PRAGMA quick_check`` at
open) — never a hang, never a half-alive registry.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from pathlib import Path

SCHEMA_VERSION = 3

JOB_STATES = ("pending", "running", "done", "failed")

# state -> the states it may move to; anything else is an illegal hop.
LEGAL_TRANSITIONS: dict[str, tuple[str, ...]] = {
    "pending": ("running",),
    "running": ("done", "failed", "pending"),  # pending = orphan recovery
    "failed": ("pending",),  # explicit requeue
    "done": (),
}


class RegistryError(RuntimeError):
    """Base class of registry failures."""


class RegistryCorruptError(RegistryError):
    """The database file is not a healthy sqlite registry."""


class IllegalTransitionError(RegistryError):
    """A job-state hop outside :data:`LEGAL_TRANSITIONS` was attempted."""


class UnknownJobError(RegistryError):
    """A job id that is not in the registry."""


# Each entry migrates the schema one version forward; entry ``i`` moves
# ``user_version`` from ``i`` to ``i+1``.  Append, never edit.
MIGRATIONS: tuple[tuple[str, ...], ...] = (
    (
        """
        CREATE TABLE tasks (
            fingerprint TEXT PRIMARY KEY,
            name        TEXT NOT NULL,
            spec        TEXT NOT NULL,
            created     REAL NOT NULL
        )
        """,
        f"""
        CREATE TABLE jobs (
            id          TEXT PRIMARY KEY,
            fingerprint TEXT NOT NULL UNIQUE,
            kind        TEXT NOT NULL,
            task_fingerprint TEXT,
            payload     TEXT NOT NULL,
            status      TEXT NOT NULL
                        CHECK (status IN {JOB_STATES!r})
                        DEFAULT 'pending',
            owner       TEXT,
            attempts    INTEGER NOT NULL DEFAULT 0,
            submissions INTEGER NOT NULL DEFAULT 1,
            tenants     TEXT NOT NULL DEFAULT '[]',
            error       TEXT,
            metrics     TEXT,
            created     REAL NOT NULL,
            updated     REAL NOT NULL
        )
        """,
        "CREATE INDEX jobs_status ON jobs (status, created, id)",
        """
        CREATE TABLE results (
            fingerprint TEXT PRIMARY KEY,
            job_id      TEXT,
            kind        TEXT NOT NULL,
            body        TEXT NOT NULL,
            created     REAL NOT NULL
        )
        """,
    ),
    # v1 -> v2: queue-wait accounting and persisted metrics history.
    # ``queued_at`` stamps when a job (re)entered the pending queue, so a
    # claim can report wait time; existing pending rows backfill from
    # ``updated`` (their last state change is when they were queued).
    (
        "ALTER TABLE jobs ADD COLUMN queued_at REAL",
        "UPDATE jobs SET queued_at = updated WHERE status = 'pending'",
        """
        CREATE TABLE metrics_history (
            id       INTEGER PRIMARY KEY AUTOINCREMENT,
            ts       REAL NOT NULL,
            source   TEXT NOT NULL DEFAULT '',
            snapshot TEXT NOT NULL
        )
        """,
        "CREATE INDEX metrics_history_ts ON metrics_history (ts)",
    ),
    # v2 -> v3: drop the ``tasks`` table of v1, which nothing wrote or read.
    ("DROP TABLE tasks",),
)


def _job_row_to_dict(row: sqlite3.Row) -> dict:
    job = dict(row)
    job["tenants"] = json.loads(job.get("tenants") or "[]")
    for key in ("payload", "metrics"):
        if job.get(key):
            job[key] = json.loads(job[key])
    return job


class ServiceDB:
    """Thread-safe facade over the registry database file.

    ``repro serve`` opens :attr:`Settings.service_db
    <repro.settings.Settings>` unless ``--db`` names another file.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._tls = threading.local()
        self._migrate_lock = threading.Lock()
        # Open (and migrate) eagerly so corruption surfaces at construction,
        # not on the first request minutes later.
        self._connection()

    # ------------------------------------------------------------------
    # Connections and schema
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._tls, "conn", None)
        if conn is not None:
            return conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.path, timeout=30.0, isolation_level=None  # autocommit; we BEGIN manually
        )
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            health = conn.execute("PRAGMA quick_check").fetchone()[0]
            if health != "ok":
                raise RegistryCorruptError(
                    f"registry {self.path} failed quick_check: {health}"
                )
            conn.execute("PRAGMA journal_mode = WAL")
            with self._migrate_lock:
                self._migrate(conn)
        except sqlite3.DatabaseError as exc:
            conn.close()
            raise RegistryCorruptError(
                f"registry {self.path} is not a readable sqlite database "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        except RegistryError:
            conn.close()
            raise
        self._tls.conn = conn
        return conn

    def _migrate(self, conn: sqlite3.Connection) -> None:
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise RegistryError(
                f"registry {self.path} has schema v{version}, newer than this "
                f"build's v{SCHEMA_VERSION}; refusing to downgrade"
            )
        while version < SCHEMA_VERSION:
            conn.execute("BEGIN IMMEDIATE")
            try:
                # Re-read under the write lock: another process/thread may
                # have migrated between our check and our BEGIN.
                version = conn.execute("PRAGMA user_version").fetchone()[0]
                if version >= SCHEMA_VERSION:
                    conn.execute("COMMIT")
                    break
                for statement in MIGRATIONS[version]:
                    conn.execute(statement)
                # PRAGMA cannot be parameterized; version is a trusted int.
                conn.execute(f"PRAGMA user_version = {version + 1}")
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            version += 1

    def close(self) -> None:
        conn = getattr(self._tls, "conn", None)
        if conn is not None:
            conn.close()
            self._tls.conn = None

    def _write(self):
        """An immediate-transaction context for read-modify-write blocks."""
        return _WriteTransaction(self._connection())

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit_job(
        self,
        fingerprint: str,
        kind: str,
        payload: dict,
        tenant: str = "anonymous",
        task_fingerprint: str | None = None,
    ) -> tuple[dict, bool]:
        """Insert a job, or dedupe onto the existing one (by fingerprint).

        Returns ``(job, deduped)``.  A duplicate submission bumps the job's
        ``submissions`` count and tenant list but triggers no new work —
        whatever state the original is in (queued, running, or already
        done) is what the second tenant gets.
        """
        now = time.time()
        with self._write() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            if row is not None:
                tenants = json.loads(row["tenants"])
                if tenant not in tenants:
                    tenants.append(tenant)
                conn.execute(
                    "UPDATE jobs SET submissions = submissions + 1, "
                    "tenants = ?, updated = ? WHERE id = ?",
                    (json.dumps(tenants), now, row["id"]),
                )
                return self._get_job(conn, row["id"]), True
            job_id = uuid.uuid4().hex[:12]
            conn.execute(
                "INSERT INTO jobs (id, fingerprint, kind, task_fingerprint, "
                "payload, status, tenants, created, updated, queued_at) "
                "VALUES (?, ?, ?, ?, ?, 'pending', ?, ?, ?, ?)",
                (
                    job_id,
                    fingerprint,
                    kind,
                    task_fingerprint,
                    json.dumps(payload, sort_keys=True),
                    json.dumps([tenant]),
                    now,
                    now,
                    now,
                ),
            )
            return self._get_job(conn, job_id), False

    def _get_job(self, conn: sqlite3.Connection, job_id: str) -> dict:
        row = conn.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return _job_row_to_dict(row)

    def get_job(self, job_id: str) -> dict:
        return self._get_job(self._connection(), job_id)

    def list_jobs(self, status: str | None = None) -> list[dict]:
        conn = self._connection()
        if status is None:
            rows = conn.execute("SELECT * FROM jobs ORDER BY created, id").fetchall()
        else:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status = ? ORDER BY created, id", (status,)
            ).fetchall()
        return [_job_row_to_dict(row) for row in rows]

    def counts(self) -> dict[str, int]:
        rows = self._connection().execute(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def claim_next(self, owner: str) -> dict | None:
        """Atomically move the oldest pending job to ``running``.

        The claim is one guarded ``UPDATE ... RETURNING`` inside an
        immediate transaction, so two workers racing on the same queue can
        never both claim one job: the second worker's subselect no longer
        sees it.
        """
        now = time.time()
        with self._write() as conn:
            row = conn.execute(
                "UPDATE jobs SET status = 'running', owner = ?, "
                "attempts = attempts + 1, updated = ? "
                "WHERE id = (SELECT id FROM jobs WHERE status = 'pending' "
                "            ORDER BY created, id LIMIT 1) "
                "AND status = 'pending' RETURNING *",
                (owner, now),
            ).fetchone()
            if row is None:
                return None
            job = _job_row_to_dict(row)
            # How long the job sat queued before this claim (observability
            # only; fed into the service.job.queue_wait_seconds histogram).
            queued_at = job.get("queued_at")
            job["queue_wait"] = max(0.0, now - queued_at) if queued_at else 0.0
            return job

    def transition(
        self,
        job_id: str,
        to_state: str,
        from_state: str | None = None,
        error: str | None = None,
        metrics: dict | None = None,
    ) -> dict:
        """Move one job between states, enforcing the legal-hop table.

        The update is guarded: ``WHERE id = ? AND status = ?`` with the
        rowcount checked, so a concurrent transition (or an illegal hop)
        raises :class:`IllegalTransitionError` instead of silently clobbering
        another worker's write.
        """
        if to_state not in JOB_STATES:
            raise IllegalTransitionError(f"unknown state {to_state!r}")
        with self._write() as conn:
            job = self._get_job(conn, job_id)
            current = job["status"]
            if from_state is not None and current != from_state:
                raise IllegalTransitionError(
                    f"job {job_id}: expected {from_state!r} but found {current!r}"
                )
            if to_state not in LEGAL_TRANSITIONS[current]:
                raise IllegalTransitionError(
                    f"job {job_id}: illegal transition {current!r} -> {to_state!r}"
                )
            now = time.time()
            updated = conn.execute(
                "UPDATE jobs SET status = ?, error = ?, "
                "metrics = COALESCE(?, metrics), updated = ?, "
                "queued_at = CASE WHEN ? = 'pending' THEN ? ELSE queued_at END "
                "WHERE id = ? AND status = ?",
                (
                    to_state,
                    error,
                    json.dumps(metrics, sort_keys=True) if metrics else None,
                    now,
                    to_state,
                    now,
                    job_id,
                    current,
                ),
            ).rowcount
            if updated != 1:
                raise IllegalTransitionError(
                    f"job {job_id}: lost transition race from {current!r}"
                )
            return self._get_job(conn, job_id)

    def heartbeat(self, job_id: str, owner: str) -> bool:
        """Refresh a running job's ``updated`` stamp; the liveness signal.

        Guarded by owner and status so a heartbeat can never resurrect a
        job that was recovered (or finished) out from under its worker.
        Returns whether the job is still this owner's to run — a worker
        seeing ``False`` knows its claim was taken away.
        """
        with self._write() as conn:
            updated = conn.execute(
                "UPDATE jobs SET updated = ? "
                "WHERE id = ? AND status = 'running' AND owner = ?",
                (time.time(), job_id, owner),
            ).rowcount
        return updated == 1

    def recover_orphans(
        self,
        owner_prefix: str | None = None,
        stale_after: float | None = None,
    ) -> list[dict]:
        """Requeue ``running`` jobs left behind by a dead daemon.

        A killed daemon cannot mark its in-flight job; on restart,
        ``running`` jobs go back to ``pending``.  Progress checkpoints
        written by the job's executor survive on disk, so the re-run
        resumes bitwise-identically instead of starting over.

        With no filter this requeues *every* running job — only safe when
        the caller knows no other worker is alive (tests, an explicit
        admin reset).  Daemons sharing a registry with workers they cannot
        see must scope the sweep: ``owner_prefix`` restricts it to their
        own claim tags, and ``stale_after`` restricts it to jobs whose
        ``updated`` heartbeat (see :meth:`heartbeat`) went quiet more than
        that many seconds ago — a live worker's job is never stolen.
        """
        with self._write() as conn:
            query = "SELECT id FROM jobs WHERE status = 'running'"
            params: list = []
            if owner_prefix is not None:
                query += " AND owner LIKE ?"
                params.append(owner_prefix + "%")
            if stale_after is not None:
                query += " AND updated < ?"
                params.append(time.time() - stale_after)
            rows = conn.execute(query, params).fetchall()
            recovered = []
            for row in rows:
                now = time.time()
                conn.execute(
                    "UPDATE jobs SET status = 'pending', owner = NULL, "
                    "updated = ?, queued_at = ? "
                    "WHERE id = ? AND status = 'running'",
                    (now, now, row["id"]),
                )
                recovered.append(self._get_job(conn, row["id"]))
            return recovered

    def requeue(self, job_id: str) -> dict:
        """Explicitly send a ``failed`` job back to the queue."""
        return self.transition(job_id, "pending", from_state="failed")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def put_result(
        self, fingerprint: str, kind: str, body: dict, job_id: str | None = None
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, job_id, kind, body, created) VALUES (?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    job_id,
                    kind,
                    json.dumps(body, sort_keys=True),
                    time.time(),
                ),
            )

    def get_result(self, fingerprint: str) -> dict | None:
        row = self._connection().execute(
            "SELECT body FROM results WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return json.loads(row["body"]) if row is not None else None

    # ------------------------------------------------------------------
    # Metrics history
    # ------------------------------------------------------------------
    def record_metrics(self, snapshot: dict, source: str = "") -> None:
        """Persist one registry snapshot (the sampler thread's write path)."""
        with self._write() as conn:
            conn.execute(
                "INSERT INTO metrics_history (ts, source, snapshot) VALUES (?, ?, ?)",
                (time.time(), source, json.dumps(snapshot, sort_keys=True)),
            )

    def metrics_history(
        self, since: float | None = None, limit: int = 500
    ) -> list[dict]:
        """Persisted snapshots, oldest first (the ``/metrics/history`` body)."""
        conn = self._connection()
        if since is None:
            rows = conn.execute(
                "SELECT ts, source, snapshot FROM metrics_history "
                "ORDER BY ts DESC, id DESC LIMIT ?",
                (int(limit),),
            ).fetchall()
        else:
            rows = conn.execute(
                "SELECT ts, source, snapshot FROM metrics_history WHERE ts >= ? "
                "ORDER BY ts DESC, id DESC LIMIT ?",
                (float(since), int(limit)),
            ).fetchall()
        return [
            {
                "ts": row["ts"],
                "source": row["source"],
                "metrics": json.loads(row["snapshot"]),
            }
            for row in reversed(rows)
        ]

    def prune_metrics_history(self, max_rows: int = 2000) -> int:
        """Bound the history table by downsampling its oldest half.

        Rather than dropping everything past ``max_rows`` (which would
        erase all long-range context), each pass deletes every second row
        of the *oldest half* — old history thins out geometrically while
        the recent window stays at full resolution.  Returns rows deleted.
        """
        deleted = 0
        while True:
            with self._write() as conn:
                total = conn.execute(
                    "SELECT COUNT(*) FROM metrics_history"
                ).fetchone()[0]
                if total <= max_rows:
                    return deleted
                oldest = conn.execute(
                    "SELECT id FROM metrics_history ORDER BY ts, id LIMIT ?",
                    (total // 2,),
                ).fetchall()
                victims = [row["id"] for row in oldest[::2]]
                if not victims:
                    return deleted
                conn.executemany(
                    "DELETE FROM metrics_history WHERE id = ?",
                    [(victim,) for victim in victims],
                )
                deleted += len(victims)


class _WriteTransaction:
    """``BEGIN IMMEDIATE`` ... ``COMMIT``/``ROLLBACK`` as a context manager."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")

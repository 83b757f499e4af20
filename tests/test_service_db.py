"""Unit tests of the service's sqlite job registry.

Covers the state machine in isolation from any HTTP or daemon machinery:
schema migration from an empty file, atomic job-state transitions with the
legal-hop table enforced, concurrent claims that can never double-claim,
corruption-safe reopen (a truncated db is a typed error, not a hang), and
content-addressed dedup/result semantics.
"""

import sqlite3
import threading

import pytest

from repro.service.db import (
    IllegalTransitionError,
    LEGAL_TRANSITIONS,
    MIGRATIONS,
    RegistryCorruptError,
    RegistryError,
    SCHEMA_VERSION,
    ServiceDB,
    UnknownJobError,
)


def _db(tmp_path, name="registry.sqlite"):
    return ServiceDB(tmp_path / name)


def _submit(db, fingerprint="fp-0", kind="rank", tenant="alice", payload=None):
    job, deduped = db.submit_job(
        fingerprint, kind, payload or {"task": {"dataset": "X"}}, tenant=tenant
    )
    return job, deduped


class TestMigration:
    def test_empty_file_migrates_to_current_schema(self, tmp_path):
        db = _db(tmp_path)
        version = db._connection().execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION
        tables = {
            row[0]
            for row in db._connection().execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert {"jobs", "results"} <= tables
        assert "tasks" not in tables

    def test_previous_schema_migrates_with_jobs_and_results_intact(self, tmp_path):
        path = tmp_path / "registry.sqlite"
        conn = sqlite3.connect(path)
        for statement in (*MIGRATIONS[0], *MIGRATIONS[1]):
            conn.execute(statement)
        conn.execute("PRAGMA user_version = 2")
        conn.execute(
            "INSERT INTO jobs (id, fingerprint, kind, payload, status, created, "
            "updated) VALUES ('job-1', 'fp-1', 'rank', '{}', 'done', 1.0, 2.0)"
        )
        conn.execute(
            "INSERT INTO results (fingerprint, job_id, kind, body, created) "
            "VALUES ('fp-1', 'job-1', 'rank', '{\"best\": 1}', 2.0)"
        )
        conn.execute(
            "INSERT INTO tasks (fingerprint, name, spec, created) "
            "VALUES ('t-1', 'X', '{}', 1.0)"
        )
        conn.commit()
        conn.close()
        db = ServiceDB(path)
        connection = db._connection()
        assert connection.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "tasks" not in tables
        job = db.get_job("job-1")
        assert (job["fingerprint"], job["status"]) == ("fp-1", "done")
        assert db.get_result("fp-1") == {"best": 1}

    def test_reopen_is_idempotent(self, tmp_path):
        _submit(_db(tmp_path))
        db = _db(tmp_path)  # second open: migration must be a no-op
        assert db.counts()["pending"] == 1

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "registry.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(RegistryError, match="refusing to downgrade"):
            ServiceDB(path)

    def test_truncated_db_is_a_typed_error_not_a_hang(self, tmp_path):
        path = tmp_path / "registry.sqlite"
        db = ServiceDB(path)
        _submit(db)
        db.close()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(RegistryCorruptError):
            ServiceDB(path)

    def test_non_sqlite_garbage_is_corrupt(self, tmp_path):
        path = tmp_path / "registry.sqlite"
        path.write_bytes(b"this is not a database " * 64)
        with pytest.raises(RegistryCorruptError):
            ServiceDB(path)


class TestTransitions:
    def test_full_happy_path(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        assert job["status"] == "pending"
        claimed = db.claim_next("worker-a")
        assert claimed["id"] == job["id"]
        assert claimed["status"] == "running"
        assert claimed["owner"] == "worker-a"
        assert claimed["attempts"] == 1
        done = db.transition(job["id"], "done", from_state="running")
        assert done["status"] == "done"

    def test_every_illegal_hop_raises(self, tmp_path):
        db = _db(tmp_path)
        states = tuple(LEGAL_TRANSITIONS)
        for source in states:
            for target in states:
                if target in LEGAL_TRANSITIONS[source]:
                    continue
                job, _ = _submit(db, fingerprint=f"fp-{source}-{target}")
                # Walk the job into `source` through legal hops only.
                walk = {
                    "pending": [],
                    "running": ["running"],
                    "done": ["running", "done"],
                    "failed": ["running", "failed"],
                }[source]
                for hop in walk:
                    db.transition(job["id"], hop)
                with pytest.raises(IllegalTransitionError):
                    db.transition(job["id"], target)

    def test_from_state_guard(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        with pytest.raises(IllegalTransitionError, match="expected 'running'"):
            db.transition(job["id"], "done", from_state="running")

    def test_unknown_job(self, tmp_path):
        db = _db(tmp_path)
        with pytest.raises(UnknownJobError):
            db.transition("nope", "running")
        with pytest.raises(UnknownJobError):
            db.get_job("nope")

    def test_failed_requeue_cycle(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        db.claim_next("w")
        db.transition(job["id"], "failed", error="boom")
        failed = db.get_job(job["id"])
        assert failed["error"] == "boom"
        requeued = db.requeue(job["id"])
        assert requeued["status"] == "pending"
        claimed = db.claim_next("w")
        assert claimed["id"] == job["id"]
        assert claimed["attempts"] == 2

    def test_status_check_constraint(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        with pytest.raises(sqlite3.IntegrityError):
            db._connection().execute(
                "UPDATE jobs SET status = 'exploded' WHERE id = ?", (job["id"],)
            )


class TestClaims:
    def test_fifo_order(self, tmp_path):
        db = _db(tmp_path)
        first, _ = _submit(db, fingerprint="fp-1")
        second, _ = _submit(db, fingerprint="fp-2")
        assert db.claim_next("w")["id"] == first["id"]
        assert db.claim_next("w")["id"] == second["id"]
        assert db.claim_next("w") is None

    def test_concurrent_claims_never_double_claim(self, tmp_path):
        db_path = tmp_path / "registry.sqlite"
        seed = ServiceDB(db_path)
        n_jobs = 12
        for index in range(n_jobs):
            _submit(seed, fingerprint=f"fp-{index}")
        claimed: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def worker(name):
            # One ServiceDB per thread exercises cross-connection locking
            # (thread-local connections inside one instance would too, but
            # this is the harsher setup).
            mine = ServiceDB(db_path)
            barrier.wait()
            while True:
                job = mine.claim_next(name)
                if job is None:
                    break
                with lock:
                    claimed.append(job["id"])

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(claimed) == n_jobs
        assert len(set(claimed)) == n_jobs  # no job claimed twice

    def test_recover_orphans_requeues_running_jobs(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        db.claim_next("worker-dead")
        recovered = db.recover_orphans()
        assert [j["id"] for j in recovered] == [job["id"]]
        assert db.get_job(job["id"])["status"] == "pending"
        assert db.get_job(job["id"])["owner"] is None

    def test_recover_orphans_owner_prefix_filter(self, tmp_path):
        db = _db(tmp_path)
        mine, _ = _submit(db, fingerprint="fp-mine")
        other, _ = _submit(db, fingerprint="fp-other")
        db.claim_next("pool-a-1")
        db.claim_next("pool-b-1")
        recovered = db.recover_orphans(owner_prefix="pool-a")
        assert [j["id"] for j in recovered] == [mine["id"]]
        assert db.get_job(other["id"])["status"] == "running"

    def test_recover_orphans_stale_gate_spares_live_jobs(self, tmp_path):
        # A registry shared by two daemon processes: recovery must requeue
        # only jobs whose heartbeat went quiet, never a live worker's.
        db = _db(tmp_path)
        fresh, _ = _submit(db, fingerprint="fp-fresh")
        stale, _ = _submit(db, fingerprint="fp-stale")
        db.claim_next("w-live")
        db.claim_next("w-dead")
        db._connection().execute(
            "UPDATE jobs SET updated = updated - 120 WHERE id = ?", (stale["id"],)
        )
        recovered = db.recover_orphans(stale_after=60.0)
        assert [j["id"] for j in recovered] == [stale["id"]]
        assert db.get_job(fresh["id"])["status"] == "running"
        assert db.get_job(stale["id"])["status"] == "pending"


class TestHeartbeat:
    def test_heartbeat_refreshes_updated(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        db.claim_next("w")
        db._connection().execute(
            "UPDATE jobs SET updated = updated - 120 WHERE id = ?", (job["id"],)
        )
        backdated = db.get_job(job["id"])["updated"]
        assert db.heartbeat(job["id"], "w")
        assert db.get_job(job["id"])["updated"] > backdated
        # A fresh heartbeat keeps the job out of a stale-gated sweep.
        assert db.recover_orphans(stale_after=60.0) == []

    def test_heartbeat_guarded_by_owner_and_status(self, tmp_path):
        db = _db(tmp_path)
        job, _ = _submit(db)
        assert not db.heartbeat(job["id"], "w")  # still pending
        db.claim_next("w")
        assert not db.heartbeat(job["id"], "other")  # someone else's claim
        db.transition(job["id"], "done")
        assert not db.heartbeat(job["id"], "w")  # terminal: cannot resurrect


class TestDedupAndResults:
    def test_duplicate_submission_dedupes(self, tmp_path):
        db = _db(tmp_path)
        job, deduped = _submit(db, tenant="alice")
        assert not deduped
        again, deduped = _submit(db, tenant="bob")
        assert deduped
        assert again["id"] == job["id"]
        assert again["submissions"] == 2
        assert again["tenants"] == ["alice", "bob"]
        assert db.counts()["pending"] == 1

    def test_duplicate_tenant_not_doubled(self, tmp_path):
        db = _db(tmp_path)
        _submit(db, tenant="alice")
        again, _ = _submit(db, tenant="alice")
        assert again["tenants"] == ["alice"]
        assert again["submissions"] == 2

    def test_result_roundtrip(self, tmp_path):
        db = _db(tmp_path)
        body = {"candidates": [{"x": 1}], "comparisons": 7}
        db.put_result("fp-r", "rank", body, job_id="j1")
        assert db.get_result("fp-r") == body
        assert db.get_result("fp-missing") is None

    def test_counts_and_listing(self, tmp_path):
        db = _db(tmp_path)
        _submit(db, fingerprint="fp-1")
        _submit(db, fingerprint="fp-2")
        db.claim_next("w")
        counts = db.counts()
        assert counts == {"pending": 1, "running": 1, "done": 0, "failed": 0}
        assert len(db.list_jobs()) == 2
        assert len(db.list_jobs("running")) == 1


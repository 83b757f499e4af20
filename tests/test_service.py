"""End-to-end tests of the search service.

Each test boots the real stack — ``ThreadingHTTPServer`` on an ephemeral
port, a worker daemon, a temporary sqlite registry, and an Engine wrapping
tiny synthetic artifacts — and talks to it over actual HTTP.  Covered:

* submit → poll → result for zero-shot ranking, via the queue and the
  synchronous ``POST /rank`` path,
* HTTP rankings bitwise-identical to the same search run through the
  :class:`~repro.service.Engine` directly (the CLI code path),
* cross-tenant dedup: the second submission is served from the registry
  with zero new evaluator calls / encoder forwards, asserted through the
  metrics registry,
* daemon killed mid-job and restarted: the job is recovered and resumes
  from its checkpoint bitwise-identically, without re-running finished
  evaluations,
* malformed payloads as 4xx, never 500s or hangs,
* concurrent clients and daemons with no double-claimed jobs,
* per-job runtime overrides (divergence policy) beating the daemon's
  environment,
* ``repro submit`` CLI against a live server.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.comparator.pretrain import PretrainHistory
from repro.comparator.tahc import TAHC
from repro.core.health import DivergenceError
from repro.data.datasets import get_dataset
from repro.embedding import MLPEmbedder
from repro.experiments.config import SCALES
from repro.experiments.harness import PretrainedArtifacts
from repro.obs import global_registry
from repro.runtime.fingerprint import proxy_fingerprint
from repro.service import (
    Daemon,
    Engine,
    RegistryError,
    ServiceAPI,
    ServiceDB,
    build_task,
    task_fingerprint,
)
from repro.service import protocol
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import Task
from repro.tasks.proxy import SENTINEL_SCORE

TINY_HYPER = HyperSpace(
    num_blocks=(1,), num_nodes=(3,), hidden_dims=(8, 12), output_dims=(8,),
    output_modes=(0, 1), dropout=(0, 1),
)


def cheap_eval(arch_hyper, task, config):
    """Deterministic fingerprint-derived score: fast and content-addressed."""
    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


def diverging_eval(arch_hyper, task, config):
    raise DivergenceError("synthetic divergence")


class InterruptAfter:
    """Raise KeyboardInterrupt after N successful evaluations (dead daemon)."""

    def __init__(self, fn, after):
        self.fn = fn
        self.after = after
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.calls >= self.after:
            raise KeyboardInterrupt("injected daemon kill")
        self.calls += 1
        return self.fn(*args, **kwargs)


class CountingEval:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.configs = []

    def __call__(self, arch_hyper, task, config):
        self.calls += 1
        self.configs.append(config)
        return self.fn(arch_hyper, task, config)


def _artifacts():
    return PretrainedArtifacts(
        variant="full",
        model=TAHC(
            embed_dim=8, gin_layers=1, hidden_dim=8, preliminary_dim=8,
            task_embed_dim=8, seed=0,
        ),
        embedder=MLPEmbedder(input_dim=1, output_dim=8),
        space=JointSearchSpace(hyper_space=TINY_HYPER),
        sample_sets=[],
        history=PretrainHistory(),
    )


def _task_spec(t=120, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    values = rng.normal(10, 2, size=(4, t, 1)).astype(np.float32)
    adjacency = np.ones((4, 4), dtype=np.float32)
    return {
        "name": name,
        "values": values.tolist(),
        "adjacency": adjacency.tolist(),
        "p": 6,
        "q": 3,
    }


class Service:
    """One booted stack; close() tears everything down."""

    def __init__(self, tmp_path, eval_fn=None, start_daemon=True):
        self.engine = Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=tmp_path / "ckpt",
            artifact_dir=tmp_path / "artifacts",
            eval_fn=eval_fn,
            cache_enabled=False,
        )
        self.db = ServiceDB(tmp_path / "registry.sqlite")
        self.daemon = Daemon(self.db, self.engine, poll_interval=0.01)
        if start_daemon:
            self.daemon.start()
        self.api = ServiceAPI(self.db, self.engine).start()

    @property
    def address(self):
        return self.api.address

    def close(self):
        self.api.stop()
        self.daemon.stop()

    # ------------------------------------------------------------------
    # HTTP helpers
    # ------------------------------------------------------------------
    def request(self, path, payload=None, tenant=None):
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Repro-Tenant"] = tenant
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(self.address + path, data=data, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def wait_for(self, job_id, timeout=30.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.request(f"/jobs/{job_id}")
            assert status == 200
            if body["job"]["status"] in ("done", "failed"):
                return body
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture
def service(tmp_path):
    stack = Service(tmp_path, eval_fn=cheap_eval)
    yield stack
    stack.close()


def _counter_value(snapshot, name):
    entry = snapshot.get(name)
    return entry["value"] if entry else 0


class TestRoutes:
    def test_health_and_metrics(self, service):
        status, body = service.request("/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["engine"] == service.engine.fingerprint
        assert set(body["jobs"]) == {"pending", "running", "done", "failed"}
        status, body = service.request("/metrics")
        assert status == 200
        assert isinstance(body["metrics"], dict)

    def test_unknown_routes_404(self, service):
        assert service.request("/nope")[0] == 404
        assert service.request("/jobs/zzz")[0] == 404
        assert service.request("/results/deadbeef")[0] == 404


class TestRankJob:
    def test_submit_poll_result(self, service):
        status, body = service.request(
            "/jobs", {"kind": "rank", "task": _task_spec(), "options": {"top_k": 2}}
        )
        assert status == 202
        assert body["job"]["status"] == "pending" or body["job"]["status"] == "running"
        final = service.wait_for(body["job"]["id"])
        assert final["job"]["status"] == "done"
        result = final["result"]
        assert result["task"].startswith("toy/")
        assert len(result["candidates"]) == 2
        assert result["comparisons"] > 0
        # The result is also addressable by fingerprint.
        status, by_fp = service.request(f"/results/{body['job']['fingerprint']}")
        assert status == 200
        assert by_fp["result"] == result

    def test_http_rank_bitwise_identical_to_engine_path(self, service, tmp_path):
        spec = _task_spec()
        status, body = service.request(
            "/rank", {"task": spec, "options": {"top_k": 2}}
        )
        assert status == 200 and not body["deduped"]
        # A *fresh* engine over identically-constructed artifacts — the CLI
        # code path — must produce the identical ranking.
        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        assert engine.fingerprint == service.engine.fingerprint
        task = build_task(spec)
        outcome = engine.rank_task(task, task_fingerprint(task), seed=0, top_k=2)
        assert body["result"]["comparisons"] == outcome.comparisons
        # json round-trip normalizes tuples to lists before comparing.
        assert body["result"]["candidates"] == json.loads(
            json.dumps([ah.to_dict() for ah in outcome.candidates])
        )

    def test_only_a_queued_rank_writes_its_checkpoint(self, service, monkeypatch):
        # Nothing resumes an in-request rank, so POST /rank saves no
        # per-generation checkpoint; a daemon rank job still does.
        from repro.runtime import Checkpoint

        saved = []
        original = Checkpoint.save

        def counting_save(checkpoint, state):
            saved.append(checkpoint.path.name)
            original(checkpoint, state)

        monkeypatch.setattr(Checkpoint, "save", counting_save)
        status, body = service.request(
            "/rank", {"task": _task_spec(), "options": {"top_k": 2}}
        )
        assert status == 200 and not body["deduped"]
        assert saved == []
        status, body = service.request(
            "/jobs", {"kind": "rank", "task": _task_spec(), "options": {"top_k": 1}}
        )
        assert status in (200, 202)
        result = service.wait_for(body["job"]["id"])
        assert result["job"]["status"] == "done"
        assert saved and all(name.startswith("job-") for name in saved)

    def test_sync_rank_dedup_zero_new_encoder_forwards(self, service):
        payload = {"task": _task_spec(), "options": {"top_k": 1}}
        status, first = service.request("/rank", payload, tenant="alice")
        assert status == 200 and not first["deduped"]
        before = global_registry().snapshot()
        status, second = service.request("/rank", payload, tenant="bob")
        after = global_registry().snapshot()
        assert status == 200 and second["deduped"]
        assert second["result"] == first["result"]
        assert second["fingerprint"] == first["fingerprint"]
        # Served from the registry: not a single new encoder forward or
        # comparator score anywhere in the process.
        for metric in ("rank.embed_misses", "rank.pair_scores", "eval.misses"):
            assert _counter_value(after, metric) == _counter_value(before, metric)

    def test_rank_cache_shared_across_distinct_requests(self, service):
        # Same task, different top_k: different fingerprints, but the
        # engine's per-task cache means the second request adds zero
        # encoder forwards for candidates already embedded.
        spec = _task_spec()
        service.request("/rank", {"task": spec, "options": {"top_k": 1}})
        before = _counter_value(global_registry().snapshot(), "rank.embed_hits")
        status, body = service.request("/rank", {"task": spec, "options": {"top_k": 2}})
        assert status == 200 and not body["deduped"]
        after = _counter_value(global_registry().snapshot(), "rank.embed_hits")
        assert after > before  # re-used cached candidate embeddings


class TestTrainJob:
    def test_rank_then_train_artifact(self, service, tmp_path):
        # The intended two-step flow: rank candidates, then queue a train
        # job for the winner and get a persisted forecaster artifact back.
        spec = _task_spec(t=100)
        status, ranked = service.request(
            "/rank", {"task": spec, "options": {"top_k": 1}}
        )
        assert status == 200
        winner = ranked["result"]["candidates"][0]
        status, submitted = service.request(
            "/jobs",
            {
                "kind": "train",
                "task": spec,
                "options": {"arch_hyper": winner, "epochs": 1},
            },
        )
        assert status == 202
        final = service.wait_for(submitted["job"]["id"], timeout=120)
        assert final["job"]["status"] == "done"
        result = final["result"]
        assert np.isfinite(result["test_mae"])
        assert result["arch_hyper"]["hyper"] == winner["hyper"]
        from pathlib import Path

        artifact = Path(result["artifact"])
        assert artifact.is_dir()
        assert (artifact / "model.json").exists()


class TestDedup:
    def test_queued_dedup_across_tenants_zero_new_evals(self, service):
        payload = {
            "kind": "collect",
            "task": _task_spec(),
            "options": {"n_samples": 4},
        }
        status, body = service.request("/jobs", payload, tenant="alice")
        assert status == 202
        final = service.wait_for(body["job"]["id"])
        assert final["job"]["status"] == "done"
        before = global_registry().snapshot()
        status, again = service.request("/jobs", payload, tenant="bob")
        after = global_registry().snapshot()
        assert status == 200 and again["deduped"]
        assert again["job"]["id"] == body["job"]["id"]
        assert again["job"]["tenants"] == ["alice", "bob"]
        assert again["job"]["submissions"] == 2
        # The cached result is inlined in the dedup response, and no new
        # evaluation ran anywhere in the process.
        assert again["result"] == final["result"]
        assert _counter_value(after, "eval.misses") == _counter_value(
            before, "eval.misses"
        )
        assert service.db.counts()["done"] == 1

    def test_different_options_do_not_dedupe(self, service):
        base = {"kind": "collect", "task": _task_spec()}
        _, first = service.request(
            "/jobs", {**base, "options": {"n_samples": 2}}
        )
        _, second = service.request(
            "/jobs", {**base, "options": {"n_samples": 3}}
        )
        assert first["job"]["fingerprint"] != second["job"]["fingerprint"]

    def test_score_inert_runtime_knobs_dedupe(self, service):
        base = {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}}
        _, first = service.request(
            "/jobs", {**base, "runtime": {"workers": 1, "max_retries": 2}}
        )
        _, second = service.request(
            "/jobs", {**base, "runtime": {"workers": 4, "eval_timeout": 30.0}}
        )
        assert second["deduped"]
        assert first["job"]["fingerprint"] == second["job"]["fingerprint"]

    def test_score_semantics_version_change_misses_dedup(self, service, monkeypatch):
        # A result computed under older score semantics must not be served.
        payload = {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}}
        _, first = service.request("/jobs", payload)
        monkeypatch.setattr(protocol, "CACHE_KEY_VERSION", protocol.CACHE_KEY_VERSION + 1)
        _, second = service.request("/jobs", payload)
        assert not second["deduped"]
        assert first["job"]["fingerprint"] != second["job"]["fingerprint"]


class TestKillRestart:
    def test_daemon_kill_and_restart_resumes_bitwise(self, tmp_path):
        # Reference: an uninterrupted run of the same job.
        ref = Service(tmp_path / "ref", eval_fn=cheap_eval)
        payload = {
            "kind": "collect",
            "task": _task_spec(),
            "options": {"n_samples": 6},
        }
        _, submitted = ref.request("/jobs", payload)
        reference = ref.wait_for(submitted["job"]["id"])["result"]
        ref.close()

        # Interrupted: the eval function kills the "process" (the worker
        # loop) after 3 evaluations; run the daemon synchronously so the
        # KeyboardInterrupt propagates to us like a real SIGINT would.
        interrupting = InterruptAfter(cheap_eval, after=3)
        crashed = Service(
            tmp_path / "crash", eval_fn=interrupting, start_daemon=False
        )
        _, submitted = crashed.request("/jobs", payload)
        job_id = submitted["job"]["id"]
        with pytest.raises(KeyboardInterrupt):
            crashed.daemon.run_once()
        # The daemon died mid-job: the job is still 'running', with 3
        # scores already flushed to its progress checkpoint.
        assert crashed.db.get_job(job_id)["status"] == "running"
        crashed.api.stop()

        # Restart: a fresh daemon (fresh engine, same artifacts, same
        # registry and checkpoint dir) recovers the orphan and finishes it.
        counting = CountingEval(cheap_eval)
        engine = Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=tmp_path / "crash" / "ckpt",
            eval_fn=counting,
            cache_enabled=False,
        )
        assert engine.fingerprint == crashed.engine.fingerprint
        db = ServiceDB(tmp_path / "crash" / "registry.sqlite")
        daemon = Daemon(db, engine, poll_interval=0.01)
        recovered = db.recover_orphans()
        assert [job["id"] for job in recovered] == [job_id]
        assert daemon.run_once()
        final = db.get_job(job_id)
        assert final["status"] == "done"
        # Only the 3 unfinished evaluations ran; the first 3 were resumed
        # from the checkpoint...
        assert counting.calls == 3
        assert final["metrics"]["eval.resumed"]["value"] == 3
        # ...and the merged result is bitwise-identical to the
        # uninterrupted reference run.
        assert db.get_result(final["fingerprint"]) == reference


class TestFailures:
    @pytest.mark.parametrize(
        "payload",
        [
            {"task": _task_spec()},  # missing kind
            {"kind": "nope", "task": _task_spec()},
            {"kind": "rank"},  # missing task
            {"kind": "rank", "task": {"p": 6, "q": 3}},  # no dataset/values
            {"kind": "rank", "task": {"dataset": "NOT-A-DATASET", "p": 6, "q": 3}},
            {"kind": "rank", "task": {**_task_spec(), "p": "six"}},
            {"kind": "rank", "task": {**_task_spec(), "values": [[["x"]]]}},
            {"kind": "train", "task": _task_spec()},  # no arch_hyper
            {"kind": "rank", "task": _task_spec(), "runtime": {"divergence_policy": "maybe"}},
            [1, 2, 3],  # not an object
        ],
    )
    def test_malformed_payloads_are_4xx(self, service, payload):
        status, body = service.request("/jobs", payload)
        assert status == 400
        assert "error" in body

    def test_invalid_json_is_400(self, service):
        req = urllib.request.Request(
            service.address + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def test_non_finite_series_rejected(self, service):
        # NaN without an imputation policy is a typed 422 naming the fix
        # (see tests/test_robustness.py for the repair path).
        spec = _task_spec()
        spec["values"][0][0][0] = float("nan")
        status, body = service.request("/jobs", {"kind": "rank", "task": spec})
        assert status == 422
        assert "imputation" in body["error"]

    def test_sync_rank_rejects_other_kinds(self, service):
        status, _ = service.request(
            "/rank", {"kind": "collect", "task": _task_spec()}
        )
        assert status == 400

    def test_failed_job_records_error_and_requeues(self, tmp_path):
        stack = Service(tmp_path, eval_fn=diverging_eval)
        try:
            payload = {
                "kind": "collect",
                "task": _task_spec(),
                "options": {"n_samples": 2},
                "runtime": {"divergence_policy": "raise"},
            }
            _, submitted = stack.request("/jobs", payload)
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "failed"
            assert "DivergenceError" in final["job"]["error"]
            # A failed job can be requeued over HTTP (and fails again).
            status, body = stack.request(
                f"/jobs/{submitted['job']['id']}/requeue", {}
            )
            assert status == 200
            assert body["job"]["status"] == "pending"
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "failed"
            assert final["job"]["attempts"] == 2
        finally:
            stack.close()


class TestDaemonRobustness:
    def test_worker_loop_survives_registry_exceptions(self, tmp_path):
        # A transient RegistryError in the claim cycle (sqlite contention,
        # a lost transition race) must not silently kill the worker while
        # the API keeps accepting jobs.
        stack = Service(tmp_path, eval_fn=cheap_eval)
        try:
            original = stack.db.claim_next
            failures = {"left": 3}

            def flaky_claim(owner):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RegistryError("synthetic contention")
                return original(owner)

            stack.db.claim_next = flaky_claim
            _, submitted = stack.request(
                "/jobs",
                {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}},
            )
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "done"
            assert failures["left"] == 0  # the loop really did hit the faults
            assert stack.daemon.running
        finally:
            stack.close()

    def test_restarting_daemon_does_not_steal_live_jobs(self, tmp_path):
        # A second `repro serve` on the same registry must not requeue a
        # job a live worker elsewhere is still heartbeating (double
        # execution + a lost running->done race for the first worker).
        db = ServiceDB(tmp_path / "registry.sqlite")
        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        job, _ = db.submit_job("fp-live", "collect", {"task": _task_spec()})
        db.claim_next("live-worker")  # fresh claim == fresh heartbeat
        restarted = Daemon(db, engine, recover_stale_after=30.0)
        assert restarted.recover_once() == []
        assert db.get_job(job["id"])["status"] == "running"
        # Once the heartbeat goes quiet past the threshold it is an orphan.
        db._connection().execute(
            "UPDATE jobs SET updated = updated - 60 WHERE id = ?", (job["id"],)
        )
        recovered = restarted.recover_once()
        assert [j["id"] for j in recovered] == [job["id"]]
        assert db.get_job(job["id"])["status"] == "pending"


class TestEngineRanking:
    def test_concurrent_ranks_match_sequential_reference(self):
        # Daemon rank jobs race synchronous /rank calls on one engine; the
        # engine-level lock must keep every result bitwise-identical to a
        # sequential run on a fresh engine.
        specs = [_task_spec(seed=index, name=f"toy-{index}") for index in range(3)]
        tasks = [build_task(spec) for spec in specs]
        reference_engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        reference = {}
        for task in tasks:
            outcome = reference_engine.rank_task(
                task, task_fingerprint(task), seed=0, top_k=2
            )
            reference[task.name] = [ah.to_dict() for ah in outcome.candidates]

        engine = Engine(_artifacts(), SCALES["smoke"], cache_enabled=False)
        results: dict[str, list] = {}
        errors: list[Exception] = []

        def worker(task):
            try:
                outcome = engine.rank_task(
                    task, task_fingerprint(task), seed=0, top_k=2
                )
                candidates = [ah.to_dict() for ah in outcome.candidates]
                previous = results.setdefault(task.name, candidates)
                assert previous == candidates  # repeat ranks agree too
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(task,)) for task in tasks * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert results == reference

    def test_rank_cache_is_bounded_lru(self):
        engine = Engine(
            _artifacts(), SCALES["smoke"], cache_enabled=False, rank_cache_size=2
        )
        for index in range(3):
            task = build_task(_task_spec(seed=index, name=f"toy-{index}"))
            engine.rank_task(task, task_fingerprint(task), seed=0, top_k=1)
        assert len(engine._rank_cache) == 2
        # The most recent two tasks survived, the oldest was evicted.
        newest = build_task(_task_spec(seed=2, name="toy-2"))
        assert task_fingerprint(newest) in engine._rank_cache

    def test_engine_holds_comparator_in_eval_mode(self):
        task = build_task(_task_spec())
        outcomes = []
        for training in (True, False):
            artifacts = _artifacts()
            artifacts.model.train(training)
            engine = Engine(artifacts, SCALES["smoke"], cache_enabled=False)
            outcome = engine.rank_task(task, task_fingerprint(task), seed=0, top_k=2)
            assert not any(m.training for m in artifacts.model.modules())
            assert engine.fingerprint == Engine(
                _artifacts(), SCALES["smoke"], cache_enabled=False
            ).fingerprint
            outcomes.append(
                ([ah.to_dict() for ah in outcome.candidates], outcome.comparisons)
            )
        assert outcomes[0] == outcomes[1]


class TestRankPath:
    def test_keep_alive_rank_responses_do_not_stall(self, service):
        # A response leaves as two writes (headers, body).  With Nagle's
        # algorithm on, the body waits ~40 ms for the client's delayed ACK
        # on every response of a keep-alive connection: >= 0.8 s for 20.
        body = json.dumps({"task": _task_spec(), "options": {"top_k": 1}}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", service.api.port, timeout=30)

        def post():
            conn.request(
                "POST", "/rank", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())

        try:
            status, first = post()
            assert status == 200 and not first["deduped"]
            started = time.perf_counter()
            for _ in range(20):
                status, reply = post()
                assert status == 200 and reply["deduped"]
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 deduped keep-alive /rank calls took {elapsed:.2f}s"

    def test_registered_dataset_memo_is_shared_and_read_only(self):
        spec = {"dataset": "SZ-TAXI", "p": 6, "q": 6, "seed": 3}
        first, second = build_task(spec), build_task(spec)
        assert first.data is second.data
        fresh = get_dataset("SZ-TAXI", seed=3)
        np.testing.assert_array_equal(first.data.values, fresh.values)
        np.testing.assert_array_equal(first.data.adjacency, fresh.adjacency)
        assert task_fingerprint(first) == task_fingerprint(Task(fresh, p=6, q=6))
        for array in (first.data.values, first.data.adjacency):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        # The data pipeline only ever reads its input.
        assert first.prepared.train.x.size > 0

    def test_dirty_dataset_mask_is_read_only(self):
        task = build_task({"dataset": "SZ-TAXI-missing", "p": 6, "q": 6})
        assert task.data.mask is not None and not task.data.mask.flags.writeable
        with pytest.raises(ValueError):
            task.data.mask[0, 0] = False

    def test_dataset_memo_is_bounded_lru(self):
        memo = protocol._registered_dataset
        size = memo.cache_info().maxsize
        assert size is not None
        seeds = [1000 + index for index in range(size + 3)]
        for seed in seeds:
            build_task({"dataset": "SZ-TAXI", "p": 6, "q": 6, "seed": seed})
        assert memo.cache_info().currsize == size
        hits = memo.cache_info().hits
        build_task({"dataset": "SZ-TAXI", "p": 6, "q": 6, "seed": seeds[-1]})
        assert memo.cache_info().hits == hits + 1  # the newest stayed
        misses = memo.cache_info().misses
        build_task({"dataset": "SZ-TAXI", "p": 6, "q": 6, "seed": seeds[0]})
        assert memo.cache_info().misses == misses + 1  # the oldest was evicted


class TestConcurrency:
    def test_concurrent_clients_no_double_execution(self, tmp_path):
        stack = Service(tmp_path, eval_fn=cheap_eval)
        # A second daemon on the same registry: claims must not collide.
        second = Daemon(stack.db, stack.engine, poll_interval=0.01).start()
        try:
            specs = [
                {
                    "kind": "collect",
                    "task": _task_spec(seed=index, name=f"toy-{index}"),
                    "options": {"n_samples": 2},
                }
                for index in range(6)
            ]
            results: dict[int, dict] = {}
            errors: list[Exception] = []

            def client(index):
                try:
                    status, body = stack.request("/jobs", specs[index])
                    assert status == 202, body
                    results[index] = stack.wait_for(body["job"]["id"])
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(specs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == len(specs)
            for body in results.values():
                assert body["job"]["status"] == "done"
                # Exactly one claim per job: no daemon double-executed it.
                assert body["job"]["attempts"] == 1
                assert len(body["result"]["samples"]) == 2
        finally:
            second.stop()
            stack.close()


class TestRuntimeOverrides:
    def test_per_job_divergence_policy_beats_daemon_env(self, tmp_path, monkeypatch):
        # The daemon's environment says 'raise'; the job says 'sentinel'.
        # The job must win: divergence becomes the deterministic sentinel
        # score instead of failing the job.
        monkeypatch.setenv("REPRO_DIVERGENCE_POLICY", "raise")
        stack = Service(tmp_path, eval_fn=diverging_eval)
        try:
            payload = {
                "kind": "collect",
                "task": _task_spec(),
                "options": {"n_samples": 2},
                "runtime": {"divergence_policy": "sentinel"},
            }
            _, submitted = stack.request("/jobs", payload)
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "done"
            assert [s["score"] for s in final["result"]["samples"]] == [
                SENTINEL_SCORE,
                SENTINEL_SCORE,
            ]

            # And with no per-job override, the daemon's env applies.
            payload = {
                "kind": "collect",
                "task": _task_spec(seed=1, name="toy-b"),
                "options": {"n_samples": 2},
            }
            _, submitted = stack.request("/jobs", payload)
            final = stack.wait_for(submitted["job"]["id"])
            assert final["job"]["status"] == "failed"
            assert "DivergenceError" in final["job"]["error"]
        finally:
            stack.close()

    def test_retired_runtime_key_is_accepted_and_inert(self):
        # Old clients, and jobs queued in a registry before the buffer pool
        # was removed, still send its wire key: the payload must parse, and
        # must dedupe against the same request without it.
        base = {"kind": "collect", "task": _task_spec(), "options": {"n_samples": 2}}
        legacy = protocol.parse_submit({**base, "runtime": {"buffer_pool": False}})
        current = protocol.parse_submit(base)
        engine_fingerprint = "0" * 64
        assert protocol.request_fingerprint(
            legacy, engine_fingerprint
        ) == protocol.request_fingerprint(current, engine_fingerprint)


class TestCLISubmit:
    def test_cli_sync_rank_against_live_server(self, service, capsys):
        from repro.cli import main

        code = main(
            [
                "submit",
                "SZ-TAXI",
                "--sync",
                "--url",
                service.address,
                "--options",
                '{"top_k": 1}',
                "--tenant",
                "cli-user",
            ]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert not body["deduped"]
        assert len(body["result"]["candidates"]) == 1

    def test_cli_submit_wait_roundtrip(self, service, capsys):
        from repro.cli import main

        code = main(
            [
                "submit",
                "SZ-TAXI",
                "--kind",
                "collect",
                "--url",
                service.address,
                "--options",
                '{"n_samples": 2}',
                "--wait",
                "--poll",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # First line is the submission echo; the rest is the result JSON.
        header, _, rest = out.partition("\n")
        assert "job " in header
        result = json.loads(rest)
        assert len(result["samples"]) == 2

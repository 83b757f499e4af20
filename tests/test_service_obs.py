"""End-to-end tests of service observability.

Boots the same real stack as ``test_service.py`` — ephemeral-port HTTP
server, worker daemons, sqlite registry — but with an explicitly injected
:class:`~repro.obs.SpanBuffer` shared between API and daemons, and covers:

* ``GET /jobs/<id>/trace`` returns exactly that job's spans — including
  evaluator spans grafted at relay time with attempt numbers — and none
  from concurrently-running jobs, with two daemons draining interleaved
  submissions,
* exactly-once span grafting across claim → crash → recover_orphans →
  re-claim: the retried job's spans carry the new attempt number, the
  correlation id survives the requeue, and resumed (checkpointed)
  evaluations do not re-emit spans,
* queue-wait and execute-latency histograms populated by the daemon, and
  per-endpoint HTTP latency histograms populated by the API,
* ``GET /metrics?format=prom`` Prometheus text exposition over HTTP,
* ``GET /metrics/history`` backed by the :class:`MetricsSampler` and its
  bounded, downsampling retention,
* the ``GET /dash`` HTML status page,
* the metrics interval's flag/env precedence and typed rejection.
"""

import urllib.error
import urllib.request

import pytest

from repro.experiments.config import SCALES
from repro.obs import SpanBuffer, global_registry
from repro.service import (
    Daemon,
    Engine,
    MetricsSampler,
    ServiceAPI,
    ServiceDB,
)
from repro.settings import Settings
from repro.utils.validation import ConfigError

from tests.test_service import (
    InterruptAfter,
    Service,
    _artifacts,
    _task_spec,
    cheap_eval,
)


class ObsService(Service):
    """The e2e stack with an injected span buffer and optional extra daemons."""

    def __init__(self, tmp_path, eval_fn=None, start_daemon=True, daemons=1):
        self.buffer = SpanBuffer()
        self.engine = Engine(
            _artifacts(),
            SCALES["smoke"],
            checkpoint_dir=tmp_path / "ckpt",
            artifact_dir=tmp_path / "artifacts",
            eval_fn=eval_fn,
            cache_enabled=False,
        )
        self.db = ServiceDB(tmp_path / "registry.sqlite")
        self.daemons = [
            Daemon(self.db, self.engine, poll_interval=0.01, span_buffer=self.buffer)
            for _ in range(daemons)
        ]
        self.daemon = self.daemons[0]
        if start_daemon:
            for daemon in self.daemons:
                daemon.start()
        self.api = ServiceAPI(self.db, self.engine, span_buffer=self.buffer).start()

    def close(self):
        self.api.stop()
        for daemon in self.daemons:
            daemon.stop()

    def raw_get(self, path):
        """(status, content-type, text) for non-JSON endpoints."""
        req = urllib.request.Request(self.address + path)
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return (
                    response.status,
                    response.headers.get("Content-Type", ""),
                    response.read().decode(),
                )
        except urllib.error.HTTPError as exc:
            return exc.code, exc.headers.get("Content-Type", ""), exc.read().decode()


COLLECT = {"kind": "collect", "options": {"n_samples": 6}}


class TestJobTrace:
    def test_trace_isolation_with_two_daemons(self, tmp_path):
        """The headline acceptance: two daemons, interleaved submissions,
        and /jobs/<id>/trace returns exactly one job's spans."""
        stack = ObsService(tmp_path, eval_fn=cheap_eval, daemons=2)
        try:
            # Interleave: both jobs are queued before either finishes, so
            # with two daemons their spans land in the shared buffer
            # interleaved.
            _, a = stack.request("/jobs", {**COLLECT, "task": _task_spec(seed=0)})
            _, b = stack.request(
                "/jobs", {**COLLECT, "task": _task_spec(seed=1, name="toy-b")}
            )
            job_a, job_b = a["job"]["id"], b["job"]["id"]
            assert job_a != job_b
            stack.wait_for(job_a)
            stack.wait_for(job_b)

            traces = {}
            for job_id in (job_a, job_b):
                status, body = stack.request(f"/jobs/{job_id}/trace")
                assert status == 200
                assert body["job"] == job_id
                assert body["status"] == "done"
                assert body["attempts"] == 1
                traces[job_id] = body["spans"]

            for job_id, other in ((job_a, job_b), (job_b, job_a)):
                spans = traces[job_id]
                assert spans, f"no spans for {job_id}"
                # Every span answers to this correlation id and none leaks
                # from the concurrently-running other job.
                assert all(span["corr"] == job_id for span in spans)
                assert all(
                    other not in str(span.get("attrs", {})) for span in spans
                )
                names = [span["name"] for span in spans]
                # The daemon's top-level job span, the executor span, and
                # the evaluator spans relayed from the unit of work.
                assert "job" in names and "execute" in names
                assert names.count("eval") == 6
                (job_span,) = [s for s in spans if s["name"] == "job"]
                assert job_span["attrs"]["job"] == job_id
                assert job_span["attrs"]["attempt"] == 1
                # Relayed eval spans were grafted with the attempt number
                # only the parent knows, under the eval-batch span.
                batch_ids = {s["id"] for s in spans if s["name"] == "eval-batch"}
                for span in spans:
                    if span["name"] == "eval":
                        assert span["attrs"]["attempt"] == 1
                        assert span["parent"] in batch_ids

            # Two jobs, six distinct candidates each: no span counted twice.
            for job_id in (job_a, job_b):
                candidates = [
                    s["attrs"]["candidate"]
                    for s in traces[job_id]
                    if s["name"] == "eval"
                ]
                assert len(candidates) == len(set(candidates)) == 6
        finally:
            stack.close()

    def test_trace_unknown_job_404(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval, start_daemon=False)
        try:
            status, body = stack.request("/jobs/nope/trace")
            assert status == 404 and "error" in body
        finally:
            stack.close()

    def test_crash_recovery_grafts_spans_exactly_once(self, tmp_path):
        """claim → crash → recover_orphans → re-claim: the retry's spans
        carry the new attempt, the correlation id survives the requeue, and
        checkpoint-resumed evaluations never re-emit their spans."""
        interrupting = InterruptAfter(cheap_eval, after=3)
        stack = ObsService(tmp_path, eval_fn=interrupting, start_daemon=False)
        try:
            _, submitted = stack.request("/jobs", {**COLLECT, "task": _task_spec()})
            job_id = submitted["job"]["id"]
            with pytest.raises(KeyboardInterrupt):
                stack.daemon.run_once()
            assert stack.db.get_job(job_id)["status"] == "running"

            # Attempt 1 died mid-batch: its job span was still emitted (the
            # span context manager closes on the way out) and tagged with
            # the error, but only the 3 finished evaluations were relayed.
            spans = stack.buffer.records(correlation=job_id)
            job_spans = [s for s in spans if s["name"] == "job"]
            assert [s["attrs"]["attempt"] for s in job_spans] == [1]
            assert job_spans[0]["attrs"]["error"] == "KeyboardInterrupt"
            assert len([s for s in spans if s["name"] == "eval"]) == 3

            # A fresh daemon (same registry, same buffer — the process
            # restarted, the service's buffer is shared) recovers and
            # finishes the job.
            recovered = stack.db.recover_orphans()
            assert [job["id"] for job in recovered] == [job_id]
            interrupting.after = float("inf")
            retry_daemon = Daemon(
                stack.db, stack.engine, poll_interval=0.01,
                span_buffer=stack.buffer,
            )
            assert retry_daemon.run_once()
            assert stack.db.get_job(job_id)["status"] == "done"

            status, body = stack.request(f"/jobs/{job_id}/trace")
            assert status == 200
            assert body["attempts"] == 2
            spans = body["spans"]
            # The job id doubles as the correlation id, so it survived the
            # requeue: both attempts' spans answer to one trace query...
            assert all(span["corr"] == job_id for span in spans)
            job_spans = [s for s in spans if s["name"] == "job"]
            assert [s["attrs"]["attempt"] for s in job_spans] == [1, 2]
            # ...and grafting is exactly-once: the 3 checkpointed scores
            # were resumed, not re-evaluated, so each of the 6 candidates
            # has exactly one eval span across both attempts.
            evals = [s for s in spans if s["name"] == "eval"]
            assert len(evals) == 6
            candidates = [s["attrs"]["candidate"] for s in evals]
            assert len(set(candidates)) == 6
        finally:
            stack.close()


class TestLatencyMetrics:
    def test_queue_wait_execute_and_http_histograms(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval)
        try:
            _, submitted = stack.request("/jobs", {**COLLECT, "task": _task_spec()})
            stack.wait_for(submitted["job"]["id"])
            assert stack.request("/health")[0] == 200
            snapshot = global_registry().snapshot()
            for name in (
                "service.job.queue_wait_seconds",
                "service.job.execute_seconds",
                "http.request.seconds",
                "http.get_health.seconds",
                "http.post_jobs.seconds",
            ):
                histogram = snapshot[name]
                assert histogram["kind"] == "histogram"
                assert histogram["count"] >= 1
                assert histogram["p50"] is not None
            # Execute time dominates queue wait for an immediately-claimed
            # job; both are real (non-negative) measurements.
            assert snapshot["service.job.queue_wait_seconds"]["min"] >= 0.0
            assert snapshot["service.job.execute_seconds"]["max"] > 0.0
        finally:
            stack.close()

    def test_rank_latency_and_cache_counters(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval, start_daemon=False)
        try:
            before = global_registry().snapshot()
            base = (before.get("service.rank.seconds") or {}).get("count", 0)
            status, _ = stack.request(
                "/rank", {"task": _task_spec(), "options": {"top_k": 2}}
            )
            assert status == 200
            snapshot = global_registry().snapshot()
            assert snapshot["service.rank.seconds"]["count"] == base + 1
            assert snapshot["engine.rank_cache.misses"]["value"] >= 1
        finally:
            stack.close()


class TestPrometheusEndpoint:
    def test_prom_text_exposition(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval, start_daemon=False)
        try:
            assert stack.request("/health")[0] == 200  # populate a histogram
            status, content_type, text = stack.raw_get("/metrics?format=prom")
            assert status == 200
            assert content_type.startswith("text/plain")
            assert "# TYPE http_request_seconds histogram" in text
            assert 'http_request_seconds_bucket{le="+Inf"}' in text
            assert "http_request_seconds_count" in text
            # Deterministic ordering: metric families come out name-sorted.
            families = [
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("# TYPE")
            ]
            assert families == sorted(families)
        finally:
            stack.close()

    def test_unknown_format_is_400(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval, start_daemon=False)
        try:
            status, body = stack.request("/metrics?format=xml")
            assert status == 400 and "format" in body["error"]
        finally:
            stack.close()


class TestMetricsHistory:
    def test_sampler_persists_and_endpoint_serves(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval, start_daemon=False)
        try:
            global_registry().counter("obs.history.test").inc(3)
            sampler = MetricsSampler(
                stack.db, interval=3600, source="test-sampler"
            )
            sampler.sample_once()
            sampler.sample_once()
            assert sampler.samples == 2

            status, body = stack.request("/metrics/history")
            assert status == 200
            history = body["history"]
            assert len(history) == 2
            # Oldest first, each row a full registry snapshot with its
            # source tag and timestamp.
            assert history[0]["ts"] <= history[1]["ts"]
            for row in history:
                assert row["source"] == "test-sampler"
                assert row["metrics"]["obs.history.test"]["value"] >= 3

            status, body = stack.request("/metrics/history?limit=1")
            assert status == 200 and len(body["history"]) == 1
            assert body["history"][0]["ts"] == history[1]["ts"]

            cutoff = history[1]["ts"]
            status, body = stack.request(f"/metrics/history?since={cutoff}")
            assert status == 200
            assert all(row["ts"] >= cutoff for row in body["history"])
        finally:
            stack.close()

    @pytest.mark.parametrize("query", ["?limit=0", "?limit=x", "?since=abc"])
    def test_bad_history_queries_are_400(self, tmp_path, query):
        stack = ObsService(tmp_path, eval_fn=cheap_eval, start_daemon=False)
        try:
            status, body = stack.request("/metrics/history" + query)
            assert status == 400 and "error" in body
        finally:
            stack.close()

    def test_retention_downsamples_oldest_half(self, tmp_path):
        db = ServiceDB(tmp_path / "registry.sqlite")
        for i in range(40):
            db.record_metrics({"i": {"kind": "gauge", "value": i}}, source="s")
        deleted = db.prune_metrics_history(max_rows=20)
        assert deleted > 0
        rows = db.metrics_history(limit=1000)
        assert len(rows) <= 20
        # The newest row always survives pruning; history thins from the
        # oldest end instead of truncating.
        assert rows[-1]["metrics"]["i"]["value"] == 39
        assert db.prune_metrics_history(max_rows=20) == 0

    def test_disabled_sampler_never_starts(self, tmp_path):
        db = ServiceDB(tmp_path / "registry.sqlite")
        sampler = MetricsSampler(db, interval=0)
        assert not sampler.enabled
        assert sampler.start()._thread is None
        sampler.stop()
        assert db.metrics_history() == []


class TestDashboard:
    def test_dash_serves_html_status_page(self, tmp_path):
        stack = ObsService(tmp_path, eval_fn=cheap_eval)
        try:
            _, submitted = stack.request("/jobs", {**COLLECT, "task": _task_spec()})
            stack.wait_for(submitted["job"]["id"])
            status, content_type, text = stack.raw_get("/dash")
            assert status == 200
            assert content_type.startswith("text/html")
            for section in ("Jobs", "Workers", "Latency", "Recent traces"):
                assert section in text
            # The finished job shows up in the counts and its spans in the
            # recent-traces panel.
            assert "queue depth" in text
            assert submitted["job"]["id"] in text
            assert "execute" in text
        finally:
            stack.close()


class TestMetricsIntervalConfig:
    def test_explicit_value_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", "7.5")
        resolve = Settings.from_env().override
        assert resolve(metrics_interval=2.0).metrics_interval == 2.0
        assert resolve().metrics_interval == 7.5
        assert resolve(metrics_interval=0).metrics_interval == 0.0

    def test_default_when_unset(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_METRICS_INTERVAL", raising=False)
        assert Settings.from_env().metrics_interval == 30.0
        sampler = MetricsSampler(ServiceDB(tmp_path / "registry.sqlite"))
        assert sampler.interval == 30.0

    @pytest.mark.parametrize("env", ["nope", "1h", "[]"])
    def test_malformed_env_is_config_error(self, monkeypatch, env):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", env)
        with pytest.raises(ConfigError, match="REPRO_METRICS_INTERVAL"):
            Settings.from_env()

    @pytest.mark.parametrize("value", [-1, float("nan"), float("inf")])
    def test_invalid_values_are_config_error(self, value):
        with pytest.raises(ConfigError):
            Settings().override(metrics_interval=value)

"""Integration tests for the experiment harness (SMOKE scale, no cache)."""

import numpy as np
import pytest

from repro.experiments import (
    PAPER,
    SMOKE,
    TINY,
    Aggregate,
    ResultTable,
    aggregate_runs,
    metric_value,
    pretrain_variant,
    run_baseline,
    run_zero_shot,
    source_tasks,
    target_task,
)
from repro.metrics import ForecastScores


class TestConfig:
    def test_paper_scale_documents_table2(self):
        assert PAPER.hyper_space.cardinality == 216
        assert PAPER.initial_samples == 300_000

    def test_tiny_settings_mirror_paper_labels(self):
        paper_labels = [s.label for s in PAPER.settings]
        tiny_labels = [s.label for s in TINY.settings]
        assert paper_labels == tiny_labels

    def test_setting_lookup(self):
        assert TINY.setting("P-12/Q-12").p == 6
        with pytest.raises(KeyError):
            TINY.setting("P-1/Q-1")


class TestTasks:
    def test_target_task_built_for_every_cell(self):
        for dataset in SMOKE.target_datasets:
            for setting in SMOKE.settings:
                task = target_task(SMOKE, dataset, setting)
                assert task.data.name == dataset

    def test_window_cap_applied(self):
        task = target_task(TINY, "PEMS-BAY", TINY.settings[0])
        assert len(task.prepared.train) <= TINY.max_train_windows

    def test_source_tasks_nonempty(self):
        tasks = source_tasks(SMOKE, seed=0)
        assert tasks
        assert all(t.data.n_steps >= t.window_span * 3 for t in tasks)


class TestPretrainAndSearch:
    @pytest.fixture(scope="class")
    def artifacts(self):
        return pretrain_variant(SMOKE, "full", seed=0, cache_dir=None)

    def test_pretrain_produces_history(self, artifacts):
        assert artifacts.history.losses
        assert artifacts.sample_sets

    def test_zero_shot_search_on_unseen_task(self, artifacts):
        task = target_task(SMOKE, "SZ-TAXI", SMOKE.settings[0])
        result = run_zero_shot(artifacts, task, SMOKE)
        assert np.isfinite(result.best_scores.mae)
        assert result.timings.search > 0

    def test_variant_wo_ts2vec_uses_mlp(self):
        artifacts = pretrain_variant(SMOKE, "wo_ts2vec", seed=0, cache_dir=None)
        from repro.embedding import MLPEmbedder

        assert isinstance(artifacts.embedder, MLPEmbedder)

    def test_unknown_variant_rejected(self):
        with pytest.raises(KeyError):
            pretrain_variant(SMOKE, "wo_everything", cache_dir=None)

    def test_cache_roundtrip(self, tmp_path):
        first = pretrain_variant(SMOKE, "full", seed=1, cache_dir=tmp_path)
        second = pretrain_variant(SMOKE, "full", seed=1, cache_dir=tmp_path)
        state1 = first.model.state_dict()
        state2 = second.model.state_dict()
        for key in state1:
            np.testing.assert_array_equal(state1[key], state2[key])

    def test_score_semantics_version_change_misses_cache(self, tmp_path, monkeypatch):
        from repro.experiments import harness

        pretrain_variant(SMOKE, "full", seed=1, cache_dir=tmp_path)

        def recompute(*args, **kwargs):
            raise LookupError("cache miss")

        # A hit never collects samples; a miss does, and fails loudly here.
        monkeypatch.setattr(harness, "collect_task_samples", recompute)
        pretrain_variant(SMOKE, "full", seed=1, cache_dir=tmp_path)
        monkeypatch.setattr(harness, "CACHE_KEY_VERSION", harness.CACHE_KEY_VERSION + 1)
        with pytest.raises(LookupError, match="cache miss"):
            pretrain_variant(SMOKE, "full", seed=1, cache_dir=tmp_path)

    def test_cache_write_is_atomic(self, tmp_path):
        pretrain_variant(SMOKE, "full", seed=1, cache_dir=tmp_path)
        assert list(tmp_path.glob("*.pkl"))
        assert not list(tmp_path.glob("*.tmp*"))

    def test_corrupt_cache_discarded_and_recomputed(self, tmp_path):
        first = pretrain_variant(SMOKE, "full", seed=2, cache_dir=tmp_path)
        (cache_file,) = tmp_path.glob("*.pkl")
        # Mangle the pickle stream the same way the seed's stale file was
        # (leading bytes stripped): loading must not crash the harness.
        cache_file.write_bytes(cache_file.read_bytes()[2:])
        second = pretrain_variant(SMOKE, "full", seed=2, cache_dir=tmp_path)
        state1 = first.model.state_dict()
        state2 = second.model.state_dict()
        for key in state1:
            np.testing.assert_array_equal(state1[key], state2[key])
        # The recompute repaired the cache: a third call is a clean hit.
        third = pretrain_variant(SMOKE, "full", seed=2, cache_dir=tmp_path)
        for key in state1:
            np.testing.assert_array_equal(state1[key], third.model.state_dict()[key])

    def test_unreadable_cache_payloads_treated_as_miss(self, tmp_path):
        import pickle

        from repro.runtime import Checkpoint

        def load(path):
            # The store pretrain_variant reads its artifact files through.
            return Checkpoint(path, kind="tahc-artifacts").load()

        garbage = tmp_path / "garbage.pkl"
        garbage.write_bytes(b"\x04y\x0f\x01 not a pickle")
        assert load(garbage) is None
        assert not garbage.exists()  # bad file removed

        truncated = tmp_path / "truncated.pkl"
        truncated.write_bytes(b"")
        assert load(truncated) is None

        # Pre-versioning payloads (a bare object, no format tag) are stale.
        unversioned = tmp_path / "unversioned.pkl"
        with open(unversioned, "wb") as handle:
            pickle.dump({"artifacts": "not-artifacts"}, handle)
        assert load(unversioned) is None
        assert not unversioned.exists()

        # So are artifact files written under the retired format-2 envelope.
        legacy = tmp_path / "legacy.pkl"
        with open(legacy, "wb") as handle:
            pickle.dump({"format_version": 2, "artifacts": "stale"}, handle)
        assert load(legacy) is None
        assert not legacy.exists()


class TestBaselineRunner:
    def test_run_baseline_smoke(self):
        task = target_task(SMOKE, "SZ-TAXI", SMOKE.settings[0])
        scores = run_baseline("MTGNN", task, SMOKE)
        assert np.isfinite(scores.mae)
        assert scores.mae > 0


class TestReporting:
    def _scores(self, mae):
        return ForecastScores(mae=mae, rmse=2 * mae, mape=0.1, rrse=0.5, corr=0.9)

    def test_aggregate_runs(self):
        agg = aggregate_runs([self._scores(1.0), self._scores(3.0)], "MAE")
        assert agg.mean == pytest.approx(2.0)
        assert agg.std == pytest.approx(1.0)
        assert "±" in str(agg)

    def test_metric_value(self):
        scores = self._scores(1.5)
        assert metric_value(scores, "RMSE") == pytest.approx(3.0)
        with pytest.raises(KeyError):
            metric_value(scores, "R2")

    def test_table_render_and_best_marking(self):
        table = ResultTable(title="Demo")
        table.add("D1", "MAE", "ours", Aggregate(1.0, 0.1))
        table.add("D1", "MAE", "theirs", Aggregate(2.0, 0.1))
        table.add("D1", "CORR", "ours", Aggregate(0.9, 0.0))
        table.add("D1", "CORR", "theirs", Aggregate(0.95, 0.0))
        table.mark_best()
        rendered = table.render()
        assert "*1.000±0.100*" in rendered  # lower MAE wins
        assert "*0.950±0.000*" in rendered  # higher CORR wins

    def test_table_save(self, tmp_path):
        table = ResultTable(title="Demo")
        table.add("D", "MAE", "m", "1.0")
        path = table.save(tmp_path, "demo")
        assert path.read_text().startswith("Demo")

"""Dirty-data robustness: the mask-aware path end to end.

Covers the acceptance path of the robustness layer: a seeded corruption
profile with >=20% block missingness flows through sample collection,
curriculum pre-training, zero-shot ranking, and the HTTP service with zero
non-finite comparator labels (finite sentinel scores are legitimate), while
the clean path stays byte-for-byte what it was.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.comparator import RankingEngine
from repro.comparator.pretrain import PretrainHistory
from repro.comparator.tahc import TAHC
from repro.data import CTSData, corrupt_dataset, get_dataset
from repro.data.transforms import impute_missing
from repro.embedding import MLPEmbedder
from repro.experiments import DIRTY, SCALES, make_searcher, pretrain_variant, run_zero_shot
from repro.experiments.harness import PretrainedArtifacts, source_tasks, target_task
from repro.metrics.forecasting import evaluate_forecast
from repro.nn.loss import mae_loss, masked_mae_loss
from repro.service import Daemon, Engine, ServiceAPI, ServiceDB
from repro.service.protocol import ProtocolError, build_task
from repro.space import HyperSpace, JointSearchSpace
from repro.tasks import Task


class TestDirtyEndToEnd:
    """One DIRTY-scale pretrain amortized across the acceptance asserts."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        return pretrain_variant(DIRTY, "full", seed=0, cache_dir=None)

    def test_dirty_sources_reach_the_bank(self, artifacts):
        # registry dirty variants and enrichment cycling both land in the bank
        assert any("~block_missing" in s.task_name for s in artifacts.sample_sets)

    def test_collect_labels_finite(self, artifacts):
        for sample_set in artifacts.sample_sets:
            assert np.isfinite(sample_set.scores).all(), sample_set.task_name

    def test_zero_shot_on_dirty_target(self, artifacts):
        task = target_task(DIRTY, "SZ-TAXI-missing", DIRTY.settings[0], seed=0)
        assert task.data.mask is not None
        assert (~task.data.mask).mean() >= 0.2  # the e2e missingness floor
        assert np.isfinite(task.data.values).all()
        result = run_zero_shot(artifacts, task, DIRTY, seed=0)
        assert np.isfinite(result.best_scores.mae)
        assert np.isfinite(result.best_scores.rmse)

    def test_comparator_labels_finite_unsanitized(self, artifacts):
        task = target_task(DIRTY, "SZ-TAXI-missing", DIRTY.settings[0], seed=0)
        searcher = make_searcher(artifacts, DIRTY, seed=0)
        engine = RankingEngine(
            artifacts.model,
            preliminary=searcher.embed_task(task),
            space=artifacts.space.hyper_space,
        )
        pool = artifacts.space.sample_batch(4, np.random.default_rng(0))
        wins = engine.win_matrix(pool, sanitize=False)
        assert np.isfinite(wins).all()

    def test_http_rank_on_dirty_dataset(self, artifacts, tmp_path):
        engine = Engine(
            artifacts,
            DIRTY,
            checkpoint_dir=tmp_path / "ckpt",
            artifact_dir=tmp_path / "artifacts",
            cache_enabled=False,
        )
        db = ServiceDB(tmp_path / "registry.sqlite")
        daemon = Daemon(db, engine, poll_interval=0.01)
        daemon.start()
        api = ServiceAPI(db, engine).start()
        try:
            payload = {
                "kind": "rank",
                "task": {"dataset": "SZ-TAXI-missing", "p": 6, "q": 6},
                "options": {"top_k": 1},
            }
            request = urllib.request.Request(
                api.address + "/rank",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                status, body = response.status, json.loads(response.read())
        finally:
            api.stop()
            daemon.stop()
        assert status == 200
        assert body["result"]["comparisons"] > 0
        assert len(body["result"]["candidates"]) == 1


def _cheap_service(tmp_path):
    """A SMOKE-sized service stack with handcrafted artifacts (fast boot)."""
    artifacts = PretrainedArtifacts(
        variant="full",
        model=TAHC(
            embed_dim=8, gin_layers=1, hidden_dim=8, preliminary_dim=8,
            task_embed_dim=8, seed=0,
        ),
        embedder=MLPEmbedder(input_dim=1, output_dim=8),
        space=JointSearchSpace(
            hyper_space=HyperSpace(
                num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,),
                output_dims=(8,), output_modes=(0, 1), dropout=(0,),
            )
        ),
        sample_sets=[],
        history=PretrainHistory(),
    )
    engine = Engine(artifacts, SCALES["smoke"], cache_enabled=False)
    db = ServiceDB(tmp_path / "registry.sqlite")
    api = ServiceAPI(db, engine).start()
    return api


def _post(address, path, payload):
    request = urllib.request.Request(
        address + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _inline_spec(values, **extra):
    spec = {
        "name": "inline-dirty",
        "values": values,
        "adjacency": np.ones((len(values), len(values))).tolist(),
        "p": 6,
        "q": 3,
    }
    spec.update(extra)
    return spec


def _series(t=120, n=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(10, 2, size=(n, t, 1)).astype(np.float32)


class TestServiceDirtyPayloads:
    def test_nan_without_policy_is_typed_422(self):
        values = _series().tolist()
        values[0][3][0] = float("nan")
        with pytest.raises(ProtocolError) as err:
            build_task(_inline_spec(values))
        assert err.value.status == 422
        assert "imputation" in str(err.value)

    def test_null_entries_hit_the_same_gate(self):
        values = _series().tolist()
        values[1][5][0] = None  # json null parses to NaN via float32 coercion
        with pytest.raises(ProtocolError) as err:
            build_task(_inline_spec(values))
        assert err.value.status == 422

    def test_imputation_policy_repairs_and_masks(self):
        values = _series().tolist()
        values[0][3][0] = float("nan")
        values[2][7][0] = None
        task = build_task(_inline_spec(values, imputation="mean"))
        assert np.isfinite(task.data.values).all()
        assert task.data.mask is not None
        assert not task.data.mask[0, 3, 0]
        assert not task.data.mask[2, 7, 0]

    def test_unknown_imputation_policy_rejected(self):
        with pytest.raises(ProtocolError) as err:
            build_task(_inline_spec(_series().tolist(), imputation="cubic"))
        assert err.value.status == 400

    def test_explicit_mask_anded_with_finiteness(self):
        values = _series().tolist()
        values[0][3][0] = float("nan")
        mask = np.ones((4, 120, 1), dtype=int)
        mask[1, 0, 0] = 0  # finite but untrusted
        task = build_task(
            _inline_spec(values, imputation="ffill", mask=mask.tolist())
        )
        assert not task.data.mask[0, 3, 0]  # non-finite forced out
        assert not task.data.mask[1, 0, 0]  # caller's distrust preserved

    def test_mask_shape_mismatch_rejected(self):
        mask = np.ones((4, 119, 1), dtype=int).tolist()
        with pytest.raises(ProtocolError) as err:
            build_task(_inline_spec(_series().tolist(), mask=mask))
        assert "mask shape" in str(err.value)

    def test_http_submit_nan_payload_is_422(self, tmp_path):
        api = _cheap_service(tmp_path)
        try:
            values = _series().tolist()
            values[0][0][0] = float("nan")  # json.dumps emits a NaN literal
            status, body = _post(
                api.address, "/jobs", {"kind": "rank", "task": _inline_spec(values)}
            )
            assert status == 422
            assert "imputation" in body["error"]
            # the same payload with a policy is accepted
            values_spec = _inline_spec(values, imputation="linear")
            status, body = _post(
                api.address,
                "/jobs",
                {"kind": "rank", "task": values_spec, "options": {"top_k": 1}},
            )
            assert status == 202
        finally:
            api.stop()


class TestMaskedLoss:
    def test_explicit_mask_scores_observed_only(self):
        prediction = Tensor(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
        target = np.array([[1.5, 99.0, 3.0]], dtype=np.float32)
        mask = np.array([[True, False, True]])
        loss = masked_mae_loss(prediction, target, mask=mask)
        assert loss.numpy() == pytest.approx(0.25)

    def test_all_masked_target_yields_zero_loss(self):
        prediction = Tensor(np.ones((1, 3), dtype=np.float32))
        target = np.zeros((1, 3), dtype=np.float32)
        loss = masked_mae_loss(prediction, target, mask=np.zeros((1, 3), bool))
        assert loss.numpy() == pytest.approx(0.0)

    def test_all_true_mask_matches_plain_mae(self):
        rng = np.random.default_rng(0)
        prediction = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        target = rng.normal(size=(4, 6)).astype(np.float32)
        masked = masked_mae_loss(prediction, target, mask=np.ones((4, 6), bool))
        plain = mae_loss(prediction, target)
        assert masked.numpy() == pytest.approx(plain.numpy(), rel=1e-6)

    def test_mask_gradient_only_flows_through_observed(self):
        prediction = Tensor(np.zeros((1, 3), dtype=np.float32), requires_grad=True)
        target = np.array([[1.0, 1.0, 1.0]], dtype=np.float32)
        mask = np.array([[True, False, True]])
        masked_mae_loss(prediction, target, mask=mask).backward()
        assert prediction.grad[0, 1] == 0.0
        assert prediction.grad[0, 0] != 0.0


class TestMaskedMetrics:
    def test_mask_excludes_corrupted_targets(self):
        rng = np.random.default_rng(1)
        target = rng.normal(size=(10, 3, 4, 1))
        prediction = target + 0.1
        poisoned = target.copy()
        mask = np.ones(target.shape, dtype=bool)
        poisoned[:, :, 0, :] = 1e6
        mask[:, :, 0, :] = False
        scores = evaluate_forecast(prediction, poisoned, mask=mask)
        assert scores.mae == pytest.approx(0.1, rel=1e-6)

    def test_maskless_path_matches_pre_mask_metrics(self):
        rng = np.random.default_rng(2)
        target = rng.normal(size=(8, 3, 4, 1))
        prediction = target + rng.normal(scale=0.2, size=target.shape)
        plain = evaluate_forecast(prediction, target)
        all_true = evaluate_forecast(
            prediction, target, mask=np.ones(target.shape, bool)
        )
        assert plain.mae == pytest.approx(all_true.mae, rel=1e-9)
        assert plain.rmse == pytest.approx(all_true.rmse, rel=1e-9)

    def test_all_masked_scores_zero(self):
        target = np.ones((4, 2, 3, 1))
        scores = evaluate_forecast(target + 1, target, mask=np.zeros(target.shape, bool))
        assert scores.mae == 0.0 and scores.corr == 0.0


class TestMaskedTraining:
    def _dirty_task(self, seed=0):
        rng = np.random.default_rng(seed)
        values = np.abs(rng.normal(10, 2, size=(4, 140, 1))).astype(np.float32)
        data = CTSData("clean", values, np.ones((4, 4), np.float32), "test")
        return Task(corrupt_dataset(data, "block_missing", severity=0.3, seed=seed),
                    p=6, q=3, max_train_windows=64)

    def test_forecaster_trains_on_masked_task(self):
        from repro.core import TrainConfig, build_forecaster, train_forecaster

        task = self._dirty_task()
        prepared = task.prepared
        assert prepared.train.y_mask is not None
        space = JointSearchSpace(
            hyper_space=HyperSpace(num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,),
                                   output_dims=(8,), output_modes=(0,), dropout=(0,))
        )
        model = build_forecaster(space.sample(np.random.default_rng(0)),
                                 task.data, task.horizon, seed=0)
        result = train_forecaster(
            model, prepared.train, prepared.val, TrainConfig(epochs=2, batch_size=32, seed=0)
        )
        assert np.isfinite(result.best_val_mae)

    def test_clean_training_unaffected_by_mask_machinery(self):
        """The maskless trainer path is the historical one: deterministic."""
        from repro.core import TrainConfig, build_forecaster, train_forecaster

        rng = np.random.default_rng(3)
        values = np.abs(rng.normal(10, 2, size=(4, 140, 1))).astype(np.float32)
        data = CTSData("clean", values, np.ones((4, 4), np.float32), "test")
        task = Task(data, p=6, q=3, max_train_windows=64)
        space = JointSearchSpace(
            hyper_space=HyperSpace(num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,),
                                   output_dims=(8,), output_modes=(0,), dropout=(0,))
        )
        ah = space.sample(np.random.default_rng(1))

        def run():
            model = build_forecaster(ah, data, task.horizon, seed=5)
            return train_forecaster(
                model, task.prepared.train, task.prepared.val,
                TrainConfig(epochs=2, batch_size=32, seed=5),
            ).best_val_mae

        assert run() == run()


class TestDirtyEnrichment:
    def test_corruption_cycling_widens_the_bank(self):
        tasks = source_tasks(DIRTY, seed=0)
        names = {t.data.name for t in tasks}
        assert any("~" in name for name in names)
        for t in tasks:
            assert np.isfinite(t.data.values).all()

    def test_clean_scales_have_no_corruptions(self):
        from repro.experiments import SMOKE

        assert SMOKE.enrichment_corruptions == ()
        tasks = source_tasks(SMOKE, seed=0)
        assert all("~" not in t.data.name for t in tasks)

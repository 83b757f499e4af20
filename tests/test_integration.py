"""End-to-end integration tests across subsystem boundaries."""

import numpy as np
import pytest

from repro.core import build_forecaster, train_forecaster, TrainConfig
from repro.data import get_dataset
from repro.experiments import SMOKE, pretrain_variant, run_zero_shot, target_task
from repro.space import JointSearchSpace, HyperSpace
from repro.tasks import Task


TINY_SPACE = JointSearchSpace(
    hyper_space=HyperSpace(num_blocks=(1,), num_nodes=(3,), hidden_dims=(8,),
                           output_dims=(8,), output_modes=(0, 1), dropout=(0,))
)


class TestDeterminism:
    def test_zero_shot_pipeline_deterministic(self):
        """Same seed + same cache-free pretraining => identical searched model."""
        a = pretrain_variant(SMOKE, "full", seed=2, cache_dir=None)
        b = pretrain_variant(SMOKE, "full", seed=2, cache_dir=None)
        task_a = target_task(SMOKE, "SZ-TAXI", SMOKE.settings[0], seed=2)
        task_b = target_task(SMOKE, "SZ-TAXI", SMOKE.settings[0], seed=2)
        result_a = run_zero_shot(a, task_a, SMOKE, seed=2)
        result_b = run_zero_shot(b, task_b, SMOKE, seed=2)
        assert result_a.best.key() == result_b.best.key()
        assert result_a.best_scores.mae == pytest.approx(result_b.best_scores.mae)

    def test_dataset_and_training_deterministic(self):
        data = get_dataset("Los-Loop", seed=7)
        task = Task(data, p=6, q=3, max_train_windows=64)
        ah = TINY_SPACE.sample(np.random.default_rng(7))

        def run():
            model = build_forecaster(ah, data, task.horizon, seed=7)
            result = train_forecaster(
                model, task.prepared.train, task.prepared.val,
                TrainConfig(epochs=2, batch_size=32, seed=7),
            )
            return result.best_val_mae

        assert run() == pytest.approx(run())

"""Tests for ST-blocks, the CTS forecaster, and the training loop."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.tensor import _topological_order
from repro.core import (
    CTSForecaster,
    STBlock,
    TrainConfig,
    build_forecaster,
    evaluate_forecaster,
    predict,
    train_forecaster,
)
from repro.data import CTSData, WindowSet, make_windows, split_windows
from repro.nn.loss import mae_loss, masked_mae_loss
from repro.operators import OperatorContext
from repro.space import ArchHyper, Architecture, Edge, HyperParameters


def _simple_arch(c=3):
    edges = [Edge(0, 1, "gdcc"), Edge(1, 2, "dgcn")]
    for target in range(3, c):
        edges.append(Edge(target - 1, target, "skip"))
    return Architecture(num_nodes=c, edges=tuple(edges))


def _hyper(c=3, **overrides):
    defaults = dict(
        num_blocks=1, num_nodes=c, hidden_dim=8, output_dim=8, output_mode=0, dropout=0
    )
    defaults.update(overrides)
    return HyperParameters(**defaults)


def _arch_hyper(c=3, **overrides):
    return ArchHyper(arch=_simple_arch(c), hyper=_hyper(c, **overrides))


def _sine_data(n=4, t=160, seed=0):
    rng = np.random.default_rng(seed)
    steps = np.arange(t)
    phases = rng.uniform(0, 2 * np.pi, size=(n, 1))
    values = np.sin(2 * np.pi * steps / 24 + phases) + 0.05 * rng.standard_normal((n, t))
    return CTSData("sine", values[..., None].astype(np.float32), np.ones((n, n), np.float32), "test")


class TestSTBlock:
    def _context(self, n=4):
        return OperatorContext(hidden_dim=8, n_nodes=n, rng=np.random.default_rng(0))

    def test_output_shape(self):
        block = STBlock(_simple_arch(), self._context())
        out = block(Tensor(np.random.default_rng(0).standard_normal((2, 8, 4, 10))))
        assert out.shape == (2, 8, 4, 10)

    def test_output_mode_sum_differs_from_last(self):
        arch = Architecture(3, (Edge(0, 1, "gdcc"), Edge(0, 2, "gdcc"), Edge(1, 2, "skip")))
        ctx = self._context()
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 8, 4, 6)).astype(np.float32))
        last = STBlock(arch, ctx, output_mode=0)
        total = STBlock(arch, ctx, output_mode=1)
        total.load_state_dict(last.state_dict())
        assert not np.allclose(last(x).data, total(x).data)

    def test_rejects_bad_output_mode(self):
        with pytest.raises(ValueError):
            STBlock(_simple_arch(), self._context(), output_mode=2)

    def test_multi_incoming_edges_summed(self):
        arch = Architecture(3, (Edge(0, 1, "skip"), Edge(0, 2, "skip"), Edge(1, 2, "skip")))
        block = STBlock(arch, self._context())
        x = Tensor(np.ones((1, 8, 4, 5), dtype=np.float32))
        # h1 = x; h2 = x + h1 = 2x
        np.testing.assert_allclose(block(x).data, 2.0, rtol=1e-6)


class TestForecaster:
    def test_output_shape_multi_step(self):
        model = CTSForecaster(_arch_hyper(), n_nodes=5, n_features=1, horizon=6)
        out = model(np.random.default_rng(0).standard_normal((3, 12, 5, 1)).astype(np.float32))
        assert out.shape == (3, 6, 5, 1)

    def test_output_shape_multi_feature(self):
        model = CTSForecaster(_arch_hyper(), n_nodes=4, n_features=2, horizon=3)
        out = model(np.zeros((2, 8, 4, 2), dtype=np.float32))
        assert out.shape == (2, 3, 4, 2)

    def test_deterministic_construction(self):
        a = CTSForecaster(_arch_hyper(), 4, 1, 3, seed=7)
        b = CTSForecaster(_arch_hyper(), 4, 1, 3, seed=7)
        np.testing.assert_array_equal(
            a.input_proj.weight.data, b.input_proj.weight.data
        )

    def test_num_blocks_respected(self):
        model = CTSForecaster(_arch_hyper(num_blocks=3), 4, 1, 2)
        assert len(model.blocks) == 3

    def test_dropout_hyper_controls_randomness(self):
        ah = _arch_hyper(dropout=1)
        model = CTSForecaster(ah, 4, 1, 2, seed=0)
        model.train()
        x = np.random.default_rng(0).standard_normal((2, 8, 4, 1)).astype(np.float32)
        out1 = model(x).data.copy()
        out2 = model(x).data
        assert not np.allclose(out1, out2)
        model.eval()
        out3 = model(x).data
        out4 = model(x).data
        np.testing.assert_array_equal(out3, out4)

    def test_build_forecaster_uses_graph(self):
        data = _sine_data()
        model = build_forecaster(_arch_hyper(), data, horizon=4)
        assert model.horizon == 4

    @pytest.mark.parametrize("output_mode", [0, 1])
    @pytest.mark.parametrize("masked", [False, True])
    def test_training_step_stays_float32(self, output_mode, masked):
        # Every candidate operator, dropout on: no op output and no grad may
        # be promoted to float64 by a Python-scalar constant.
        arch = Architecture(5, (
            Edge(0, 1, "gdcc"), Edge(1, 2, "inf_t"), Edge(2, 3, "dgcn"),
            Edge(3, 4, "inf_s"), Edge(0, 4, "skip"),
        ))
        hyper = _hyper(5, num_blocks=2, output_mode=output_mode, dropout=1)
        model = build_forecaster(ArchHyper(arch, hyper), _sine_data(), horizon=3)
        model.train()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8, 4, 1)).astype(np.float32)
        y = rng.standard_normal((2, 3, 4, 1)).astype(np.float32)
        prediction = model(Tensor(x))
        if masked:
            loss = masked_mae_loss(prediction, y, mask=rng.random(y.shape) > 0.3)
        else:
            loss = mae_loss(prediction, y)
        nodes = _topological_order(loss)
        assert len(nodes) > 100
        assert {node.data.dtype for node in nodes} == {np.dtype(np.float32)}
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads
        assert {g.dtype for g in grads} == {np.dtype(np.float32)}

    def test_float64_input_stays_float64(self):
        model = CTSForecaster(_arch_hyper(), 4, 1, 2)
        x = np.random.default_rng(0).standard_normal((2, 8, 4, 1))
        prediction = model(Tensor(x))
        assert prediction.dtype == np.float64
        mask = np.ones(prediction.shape, dtype=bool)
        loss = masked_mae_loss(prediction, np.zeros(prediction.shape), mask=mask)
        assert loss.dtype == np.float64

    def test_gradients_flow_end_to_end(self):
        model = CTSForecaster(_arch_hyper(), 4, 1, 2)
        x = np.random.default_rng(0).standard_normal((2, 8, 4, 1)).astype(np.float32)
        model(x).sum().backward()
        named = dict(model.named_parameters())
        assert named["input_proj.weight"].grad is not None
        assert named["out_head.weight"].grad is not None


class TestTrainer:
    def _windows(self):
        data = _sine_data()
        windows = make_windows(data, p=12, q=4)
        return split_windows(windows, (7, 1, 2))

    def test_training_reduces_loss(self):
        train, val, _ = self._windows()
        model = build_forecaster(_arch_hyper(), _sine_data(), horizon=4)
        result = train_forecaster(
            model, train, val, TrainConfig(epochs=8, batch_size=16, patience=8)
        )
        assert result.train_losses[-1] < result.train_losses[0]
        assert result.best_val_mae < 1.0  # sine amplitude is 1: must beat naive

    def test_early_stopping_restores_best_state(self):
        train, val, _ = self._windows()
        model = build_forecaster(_arch_hyper(), _sine_data(), horizon=4)
        result = train_forecaster(
            model, train, val, TrainConfig(epochs=6, batch_size=16, patience=2)
        )
        final_val = evaluate_forecaster(model, val).mae
        assert final_val == pytest.approx(result.best_val_mae, rel=1e-4)

    @pytest.mark.parametrize(
        "run",
        ["early_stopped", "full", "stop_after_epoch", "resumed_done", "never_improved"],
    )
    def test_val_scores_are_the_returned_weights_scores(self, run):
        train, val, _ = self._windows()
        if run == "never_improved":
            val = WindowSet(val.x, np.full_like(val.y, np.nan))
        patience = 1 if run == "early_stopped" else 6
        config = TrainConfig(epochs=6, batch_size=16, patience=patience, lr=0.05)
        model = build_forecaster(_arch_hyper(), _sine_data(), horizon=4)
        result = train_forecaster(
            model, train, val, config,
            stop_after_epoch=3 if run == "stop_after_epoch" else None,
            capture_state=run == "resumed_done",
        )
        if run == "resumed_done":
            assert result.state["done"]
            model = build_forecaster(_arch_hyper(), _sine_data(), horizon=4)
            result = train_forecaster(
                model, train, val, config, resume_state=result.state
            )
            assert result.epochs_trained == 6
        assert result.stopped_early == (run in ("early_stopped", "never_improved"))
        if run == "early_stopped":
            assert result.best_epoch < result.epochs_trained - 1  # restored
        if run == "never_improved":
            assert result.best_epoch == -1
        fresh = evaluate_forecaster(model, val, config.batch_size)
        assert np.array(astuple(result.val_scores)).tobytes() == (
            np.array(astuple(fresh)).tobytes()
        )

    def test_predict_shapes(self):
        train, val, test = self._windows()
        model = build_forecaster(_arch_hyper(), _sine_data(), horizon=4)
        preds = predict(model, test)
        assert preds.shape == test.y.shape

    def test_evaluate_with_inverse_transform(self):
        train, val, _ = self._windows()
        model = build_forecaster(_arch_hyper(), _sine_data(), horizon=4)
        scaled = evaluate_forecaster(model, val)
        rescaled = evaluate_forecaster(model, val, inverse=lambda a: a * 10.0)
        assert rescaled.mae == pytest.approx(10 * scaled.mae, rel=1e-4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

"""Tests for the optimizer and gradient clipping."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Linear, Parameter, mse_loss
from repro.optim import Adam, clip_grad_norm


def _quadratic_step(optimizer, param):
    """One optimization step on f(w) = ||w||^2."""
    optimizer.zero_grad()
    (param * param).sum().backward()
    optimizer.step()


class TestAdam:
    def test_descends_quadratic(self):
        w = Parameter(np.array([3.0, -5.0]))
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            _quadratic_step(opt, w)
        assert np.abs(w.data).max() < 1e-2

    def test_fits_linear_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0, -1.0]])
        x = rng.standard_normal((64, 2))
        y = x @ true_w.T
        model = Linear(2, 1, rng=rng)
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = mse_loss(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)

    def test_skips_parameters_without_grad(self):
        w = Parameter(np.array([1.0]))
        unused = Parameter(np.array([5.0]))
        opt = Adam([w, unused], lr=0.1)
        _quadratic_step(opt, w)
        np.testing.assert_array_equal(unused.data, [5.0])

    def test_rejects_empty_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        w = Parameter(np.zeros(4))
        w.grad = np.full(4, 10.0)
        norm = clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0, rel=1e-5)

    def test_leaves_small_gradients(self):
        w = Parameter(np.zeros(2))
        w.grad = np.array([0.1, 0.1])
        clip_grad_norm([w], max_norm=5.0)
        np.testing.assert_allclose(w.grad, [0.1, 0.1])

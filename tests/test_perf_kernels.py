"""Tests for the optimized kernel paths: im2col convolutions and fused
elementwise ops (see docs/performance.md).

Two kinds of guarantees:

* every new fused / im2col op has a correct backward pass
  (central-difference gradient checks in float64),
* the im2col kernels agree with the reference per-tap loop kernels to
  float tolerance, and the fused chains are *bitwise* identical to the
  unfused chains they replace.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, absolute, broadcast_to, check_gradients, mean
from repro.autodiff.fused import (
    fused_kernels_enabled,
    gated_tanh_sigmoid,
    mean_absolute_error,
    reference_kernels,
)
from repro.nn.conv import (
    CausalConv2d,
    Conv1d,
    PointwiseConv2d,
    channel_mix,
    conv1d,
    conv2d_1xk,
    im2col_conv,
)
from repro.settings import ENV_VARS

REFERENCE_KERNELS_ENV = ENV_VARS["reference_kernels"]

RNG = np.random.default_rng(23)


def _rand(*shape):
    return RNG.standard_normal(shape).astype(np.float64)


class TestIm2colGradients:
    """Central-difference checks for the single-gemm conv kernels."""

    @pytest.mark.parametrize("kernel,dilation", [(1, 1), (2, 1), (3, 2), (2, 4)])
    def test_conv2d_1xk_causal(self, kernel, dilation):
        check_gradients(
            lambda x, w: conv2d_1xk(x, w, dilation=dilation, causal=True),
            [_rand(2, 3, 4, 10), _rand(5, 3, kernel)],
        )

    def test_conv2d_1xk_non_causal(self):
        check_gradients(
            lambda x, w: conv2d_1xk(x, w, dilation=1, causal=False),
            [_rand(2, 3, 4, 8), _rand(5, 3, 3)],
        )

    def test_conv2d_1xk_bias(self):
        check_gradients(
            lambda x, w, b: conv2d_1xk(x, w, b),
            [_rand(2, 3, 4, 6), _rand(5, 3, 2), _rand(5)],
        )

    @pytest.mark.parametrize("padding", ["same", "causal"])
    @pytest.mark.parametrize("kernel,dilation", [(3, 1), (2, 2), (4, 1)])
    def test_conv1d(self, padding, kernel, dilation):
        check_gradients(
            lambda x, w: conv1d(x, w, dilation=dilation, padding=padding),
            [_rand(2, 3, 12), _rand(4, 3, kernel)],
        )

    def test_channel_mix(self):
        check_gradients(channel_mix, [_rand(2, 3, 4, 6), _rand(5, 3)])

    def test_im2col_conv_asymmetric_padding(self):
        check_gradients(
            lambda x, w: im2col_conv(x, w, dilation=1, left=2, right=1),
            [_rand(2, 3, 9), _rand(4, 3, 3)],
        )

    def test_im2col_conv_no_weight_grad(self):
        x = Tensor(_rand(2, 3, 4, 8), requires_grad=True)
        w = Tensor(_rand(5, 3, 2), requires_grad=False)
        out = im2col_conv(x, w, left=1)
        out.sum().backward()
        assert x.grad is not None and w.grad is None


class TestIm2colMatchesReference:
    """The im2col path reproduces the per-tap reference loop numerically."""

    def _compare(self, fn, inputs, monkeypatch):
        fast_in = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        fast = fn(*fast_in)
        fast.sum().backward()
        monkeypatch.setenv(REFERENCE_KERNELS_ENV, "1")
        assert reference_kernels()
        ref_in = [Tensor(x.copy(), requires_grad=True) for x in inputs]
        ref = fn(*ref_in)
        ref.sum().backward()
        np.testing.assert_allclose(fast.data, ref.data, rtol=1e-10, atol=1e-12)
        for fast_t, ref_t in zip(fast_in, ref_in):
            np.testing.assert_allclose(
                fast_t.grad, ref_t.grad, rtol=1e-10, atol=1e-12
            )

    @pytest.mark.parametrize("kernel,dilation", [(2, 1), (3, 2)])
    def test_conv2d_1xk(self, kernel, dilation, monkeypatch):
        self._compare(
            lambda x, w, b: conv2d_1xk(x, w, b, dilation=dilation),
            [_rand(2, 3, 5, 12), _rand(4, 3, kernel), _rand(4)],
            monkeypatch,
        )

    @pytest.mark.parametrize("padding", ["same", "causal"])
    def test_conv1d(self, padding, monkeypatch):
        self._compare(
            lambda x, w, b: conv1d(x, w, b, dilation=2, padding=padding),
            [_rand(3, 4, 16), _rand(5, 4, 3), _rand(5)],
            monkeypatch,
        )

    def test_pointwise(self, monkeypatch):
        layer = PointwiseConv2d(3, 5, rng=np.random.default_rng(7))
        x = _rand(2, 3, 4, 6).astype(np.float32)
        fast = layer(Tensor(x)).numpy()
        monkeypatch.setenv(REFERENCE_KERNELS_ENV, "1")
        ref = layer(Tensor(x)).numpy()
        np.testing.assert_allclose(fast, ref, rtol=1e-6, atol=1e-7)

    def test_layers_use_reference_path_under_env(self, monkeypatch):
        """$REPRO_REFERENCE_KERNELS swaps the layer-level kernel too."""
        monkeypatch.setenv(REFERENCE_KERNELS_ENV, "1")
        layer = CausalConv2d(3, 4, kernel_size=2, rng=np.random.default_rng(3))
        out = layer(Tensor(_rand(2, 3, 4, 8)))
        assert out.shape == (2, 4, 4, 8)
        conv = Conv1d(3, 4, kernel_size=3, rng=np.random.default_rng(3))
        assert conv(Tensor(_rand(2, 3, 10))).shape == (2, 4, 10)


class TestFusedKernels:
    """Fused chains are bitwise-identical to the unfused op compositions."""

    def test_gated_tanh_sigmoid_bitwise(self):
        f_data, g_data = _rand(2, 4, 3, 6), _rand(2, 4, 3, 6)
        f1 = Tensor(f_data.copy(), requires_grad=True)
        g1 = Tensor(g_data.copy(), requires_grad=True)
        fused = gated_tanh_sigmoid(f1, g1)
        fused.sum().backward()
        f2 = Tensor(f_data.copy(), requires_grad=True)
        g2 = Tensor(g_data.copy(), requires_grad=True)
        chain = f2.tanh() * g2.sigmoid()
        chain.sum().backward()
        assert np.array_equal(fused.data, chain.data)
        assert np.array_equal(f1.grad, f2.grad)
        assert np.array_equal(g1.grad, g2.grad)

    def test_gated_tanh_sigmoid_gradients(self):
        check_gradients(gated_tanh_sigmoid, [_rand(2, 3, 4, 5), _rand(2, 3, 4, 5)])

    def test_gated_tanh_sigmoid_extreme_logits(self):
        """The fused sigmoid keeps the stable two-sided formulation."""
        g = Tensor(np.array([[-500.0, 500.0, 0.0]]), requires_grad=True)
        f = Tensor(np.ones((1, 3)), requires_grad=True)
        out = gated_tanh_sigmoid(f, g)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(g.grad))

    def test_fused_mae_bitwise(self):
        p_data, t_data = _rand(3, 4, 5), _rand(3, 4, 5)
        p1 = Tensor(p_data.copy(), requires_grad=True)
        t1 = Tensor(t_data.copy(), requires_grad=True)
        fused = mean_absolute_error(p1, t1)
        fused.backward()
        p2 = Tensor(p_data.copy(), requires_grad=True)
        t2 = Tensor(t_data.copy(), requires_grad=True)
        chain = mean(absolute(p2 - t2))
        chain.backward()
        assert np.array_equal(fused.data, chain.data)
        assert np.array_equal(p1.grad, p2.grad)
        assert np.array_equal(t1.grad, t2.grad)

    def test_fused_mae_gradients(self):
        check_gradients(mean_absolute_error, [_rand(2, 5, 3), _rand(2, 5, 3)])

    def test_fused_mae_constant_target(self):
        p = Tensor(_rand(4, 3), requires_grad=True)
        loss = mean_absolute_error(p, _rand(4, 3))
        loss.backward()
        assert p.grad.shape == (4, 3)

    def test_fusion_disabled_by_reference_env(self, monkeypatch):
        monkeypatch.setenv(REFERENCE_KERNELS_ENV, "1")
        assert not fused_kernels_enabled()

    def test_fusion_disabled_under_anomaly_mode(self):
        from repro.autodiff.anomaly import detect_anomaly

        assert fused_kernels_enabled()
        with detect_anomaly():
            assert not fused_kernels_enabled()


class TestLazyBroadcast:
    def test_broadcast_to_is_zero_copy(self):
        x = Tensor(_rand(1, 4), requires_grad=True)
        out = broadcast_to(x, (3, 4))
        assert np.shares_memory(out.data, x.data)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 4), 3.0))

    def test_broadcast_to_gradients(self):
        check_gradients(lambda x: broadcast_to(x, (5, 2, 3)), [_rand(2, 3)])

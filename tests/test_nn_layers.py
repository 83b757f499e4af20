"""Tests for the neural-network layer library."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, check_gradients
from repro.nn import (
    CausalConv2d,
    ChannelNorm2d,
    Conv1d,
    Dropout,
    LayerNorm,
    Linear,
    MLP,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    PointwiseConv2d,
    ProbSparseAttention,
)

RNG = np.random.default_rng(11)


def _rand(*shape):
    return RNG.standard_normal(shape).astype(np.float64)


class TestModuleSystem:
    def test_parameter_registration(self):
        class Toy(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.inner = Linear(2, 2)

        toy = Toy()
        names = dict(toy.named_parameters())
        assert "w" in names
        assert "inner.weight" in names
        assert "inner.bias" in names

    def test_num_parameters(self):
        layer = Linear(4, 3)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        seq = ModuleList([Linear(2, 2), Dropout(0.5)])
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_state_dict_roundtrip(self):
        a = Linear(3, 2, rng=np.random.default_rng(1))
        b = Linear(3, 2, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_rejects_mismatch(self):
        a = Linear(3, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight.data})

    def test_state_dict_rejects_bad_shape(self):
        a = Linear(3, 2)
        state = a.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_module_list_iterates_in_order(self):
        layers = ModuleList([Linear(1, 1) for _ in range(3)])
        assert len(layers) == 3
        assert layers[1] is list(layers)[1]

    def test_zero_grad(self):
        layer = Linear(2, 2)
        out = layer(Tensor(_rand(4, 2)))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLinear:
    def test_forward_matches_manual(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = _rand(5, 3)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-5)

    def test_gradients(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))

        def fn(x, w, b):
            layer.weight.data = w.data
            layer.bias.data = b.data
            from repro.autodiff import matmul

            return matmul(x, w.transpose()) + b

        check_gradients(fn, [_rand(4, 3), _rand(2, 3), _rand(2)])

    def test_mlp_shapes(self):
        mlp = MLP([4, 8, 2], rng=np.random.default_rng(0))
        out = mlp(Tensor(_rand(7, 4)))
        assert out.shape == (7, 2)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])


class TestConv:
    def test_causal_conv_shape_preserved(self):
        conv = CausalConv2d(3, 5, kernel_size=2, dilation=2, rng=np.random.default_rng(0))
        out = conv(Tensor(_rand(2, 3, 4, 12)))
        assert out.shape == (2, 5, 4, 12)

    def test_causality(self):
        """Changing a future input must not change past outputs."""
        conv = CausalConv2d(1, 1, kernel_size=2, dilation=1, rng=np.random.default_rng(0))
        x = _rand(1, 1, 1, 8)
        base = conv(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[..., 5] += 10.0
        out = conv(Tensor(x2)).data
        np.testing.assert_allclose(out[..., :5], base[..., :5], rtol=1e-5)
        assert not np.allclose(out[..., 5:], base[..., 5:])

    def test_conv_matches_manual_k2(self):
        conv = CausalConv2d(1, 1, kernel_size=2, dilation=1, bias=False,
                            rng=np.random.default_rng(3))
        x = _rand(1, 1, 1, 6)
        w = conv.weight.data  # (1, 1, 2)
        out = conv(Tensor(x)).data[0, 0, 0]
        padded = np.concatenate([[0.0], x[0, 0, 0]])
        expected = w[0, 0, 0] * padded[:-1] + w[0, 0, 1] * padded[1:]
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_conv_gradients(self):
        def fn(x, w):
            return nn.conv2d_1xk(x, w, dilation=2)

        check_gradients(fn, [_rand(2, 2, 3, 7), _rand(3, 2, 2)])

    def test_pointwise_conv(self):
        conv = PointwiseConv2d(3, 4, rng=np.random.default_rng(0))
        out = conv(Tensor(_rand(2, 3, 5, 6)))
        assert out.shape == (2, 4, 5, 6)

    def test_conv1d_same_padding_shape(self):
        conv = Conv1d(2, 3, kernel_size=3, dilation=2, rng=np.random.default_rng(0))
        out = conv(Tensor(_rand(4, 2, 11)))
        assert out.shape == (4, 3, 11)

    def test_conv1d_causal(self):
        conv = Conv1d(1, 1, kernel_size=3, padding="causal", rng=np.random.default_rng(0))
        x = _rand(1, 1, 9)
        base = conv(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[..., 6] += 5.0
        out = conv(Tensor(x2)).data
        np.testing.assert_allclose(out[..., :6], base[..., :6], rtol=1e-5)

    def test_conv1d_rejects_bad_padding(self):
        with pytest.raises(ValueError):
            nn.conv1d(Tensor(_rand(1, 1, 4)), Tensor(_rand(1, 1, 3)), padding="full")

    def test_conv1d_gradients(self):
        def fn(x, w):
            return nn.conv1d(x, w, dilation=1, padding="same")

        check_gradients(fn, [_rand(2, 2, 6), _rand(3, 2, 3)])


class TestNorm:
    def test_layernorm_normalizes(self):
        ln = LayerNorm(8)
        out = ln(Tensor(_rand(4, 8) * 10 + 3)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_gradients(self):
        ln = LayerNorm(5)
        check_gradients(lambda x: ln(x), [_rand(3, 5)])

    def test_channelnorm_normalizes_channel_axis(self):
        cn = ChannelNorm2d(6)
        out = cn(Tensor(_rand(2, 6, 3, 4) * 4 - 1)).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-4)


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5)
        drop.eval()
        x = _rand(10, 10)
        np.testing.assert_array_equal(drop(Tensor(x)).data, x)

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, seed=0)
        x = np.ones((100, 100))
        out = drop(Tensor(x)).data
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        # Inverted dropout preserves the expectation.
        assert abs(out.mean() - 1.0) < 0.05

    def test_zero_rate_identity(self):
        drop = Dropout(0.0)
        x = _rand(5, 5)
        np.testing.assert_array_equal(drop(Tensor(x)).data, x)

    def test_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestAttention:
    def test_mha_shape(self):
        mha = MultiHeadAttention(8, num_heads=2, rng=np.random.default_rng(0))
        out = mha(Tensor(_rand(3, 6, 8)))
        assert out.shape == (3, 6, 8)

    def test_mha_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, num_heads=2)

    def test_mha_gradients_flow(self):
        mha = MultiHeadAttention(4, num_heads=2, rng=np.random.default_rng(0))
        out = mha(Tensor(_rand(2, 3, 4), requires_grad=True))
        out.sum().backward()
        assert mha.q_proj.weight.grad is not None
        assert mha.out_proj.weight.grad is not None

    def test_mask_blocks_attention(self):
        mha = MultiHeadAttention(4, num_heads=1, rng=np.random.default_rng(0))
        x = _rand(1, 4, 4)
        causal = np.tril(np.ones((4, 4), dtype=bool))
        base = mha(Tensor(x), mask=causal).data.copy()
        x2 = x.copy()
        x2[0, 3] += 100.0  # future position
        out = mha(Tensor(x2), mask=causal).data
        np.testing.assert_allclose(out[0, :3], base[0, :3], rtol=1e-4)

    def test_probsparse_reduces_to_full_for_short_sequences(self):
        rng = np.random.default_rng(0)
        sparse = ProbSparseAttention(8, num_heads=2, factor=10.0, rng=rng)
        x = _rand(2, 4, 8)
        full = sparse.inner(Tensor(x)).data
        np.testing.assert_allclose(sparse(Tensor(x)).data, full, rtol=1e-5)

    def test_probsparse_long_sequence_shape_and_grad(self):
        sparse = ProbSparseAttention(8, num_heads=2, factor=1.0,
                                     rng=np.random.default_rng(0))
        x = Tensor(_rand(2, 32, 8), requires_grad=True)
        out = sparse(x)
        assert out.shape == (2, 32, 8)
        out.sum().backward()
        assert sparse.inner.v_proj.weight.grad is not None

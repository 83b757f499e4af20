"""Gradient checks for every autodiff primitive against finite differences."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, check_gradients


RNG = np.random.default_rng(7)


def _rand(*shape):
    return RNG.standard_normal(shape)


class TestElementwise:
    def test_add_broadcast(self):
        check_gradients(lambda a, b: a + b, [_rand(3, 4), _rand(4)])

    def test_sub_broadcast(self):
        check_gradients(lambda a, b: a - b, [_rand(2, 3, 4), _rand(3, 1)])

    def test_mul(self):
        check_gradients(lambda a, b: a * b, [_rand(5), _rand(5)])

    def test_div(self):
        check_gradients(lambda a, b: a / b, [_rand(3, 2), np.abs(_rand(3, 2)) + 1.0])

    def test_neg(self):
        check_gradients(lambda a: -a, [_rand(4)])

    def test_power(self):
        check_gradients(lambda a: a**3, [_rand(3, 3)])

    def test_sqrt(self):
        check_gradients(ad.sqrt, [np.abs(_rand(4)) + 0.5])

    def test_abs(self):
        check_gradients(ad.absolute, [np.abs(_rand(6)) + 0.1])

    def test_exp(self):
        check_gradients(ad.exp, [_rand(3, 2)])

    def test_log(self):
        check_gradients(ad.log, [np.abs(_rand(5)) + 0.5])

    def test_tanh(self):
        check_gradients(ad.tanh, [_rand(4, 4)])

    def test_sigmoid(self):
        check_gradients(ad.sigmoid, [_rand(4)])

    def test_relu(self):
        check_gradients(ad.relu, [np.abs(_rand(5)) + 0.1])

    def test_gelu(self):
        check_gradients(ad.gelu, [_rand(4, 3)])

    def test_clip_interior(self):
        check_gradients(lambda a: ad.clip(a, -10.0, 10.0), [_rand(5)])

    def test_maximum(self):
        a, b = _rand(4), _rand(4)
        b = b + np.where(np.abs(a - b) < 0.2, 0.5, 0.0)  # avoid kink
        check_gradients(ad.maximum, [a, b])

    def test_where(self):
        cond = RNG.random((3, 4)) > 0.5
        check_gradients(lambda a, b: ad.where(cond, a, b), [_rand(3, 4), _rand(3, 4)])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda a: ad.sum(a), [_rand(3, 4)])

    def test_sum_axis_keepdims(self):
        check_gradients(lambda a: ad.sum(a, axis=1, keepdims=True), [_rand(3, 4)])

    def test_sum_multi_axis(self):
        check_gradients(lambda a: ad.sum(a, axis=(0, 2)), [_rand(2, 3, 4)])

    def test_mean_axis(self):
        check_gradients(lambda a: ad.mean(a, axis=0), [_rand(5, 2)])

    def test_mean_all(self):
        check_gradients(lambda a: ad.mean(a), [_rand(2, 2, 2)])

    def test_amax(self):
        a = np.arange(12.0).reshape(3, 4)  # unique values: no tie ambiguity
        check_gradients(lambda t: ad.amax(t, axis=1), [a])

    def test_variance_matches_numpy(self):
        a = _rand(4, 6)
        out = ad.variance(Tensor(a), axis=1)
        np.testing.assert_allclose(out.data, a.var(axis=1), rtol=1e-5)

    def test_variance_grad(self):
        check_gradients(lambda a: ad.variance(a, axis=-1), [_rand(3, 5)])


class TestLinalgAndShape:
    def test_matmul_2d(self):
        check_gradients(ad.matmul, [_rand(3, 4), _rand(4, 2)])

    def test_matmul_batched(self):
        check_gradients(ad.matmul, [_rand(2, 3, 4), _rand(2, 4, 5)])

    def test_matmul_broadcast_batch(self):
        check_gradients(ad.matmul, [_rand(2, 5, 3, 4), _rand(4, 2)])

    def test_matmul_vec(self):
        check_gradients(ad.matmul, [_rand(4), _rand(4)])

    def test_matmul_mat_vec(self):
        check_gradients(ad.matmul, [_rand(3, 4), _rand(4)])

    def test_reshape(self):
        check_gradients(lambda a: ad.reshape(a, (6, 2)), [_rand(3, 4)])

    def test_transpose(self):
        check_gradients(lambda a: ad.transpose(a, (2, 0, 1)), [_rand(2, 3, 4)])

    def test_swapaxes(self):
        check_gradients(lambda a: ad.swapaxes(a, 0, 2), [_rand(2, 3, 4)])

    def test_expand_squeeze(self):
        check_gradients(lambda a: ad.squeeze(ad.expand_dims(a, 1), 1), [_rand(3, 4)])

    def test_getitem_slice(self):
        check_gradients(lambda a: a[1:, :2], [_rand(3, 4)])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: a[idx], [_rand(3, 4)])

    def test_concat(self):
        check_gradients(lambda a, b: ad.concat([a, b], axis=1), [_rand(2, 3), _rand(2, 2)])

    def test_stack(self):
        check_gradients(lambda a, b: ad.stack([a, b], axis=0), [_rand(2, 3), _rand(2, 3)])

    def test_broadcast_to(self):
        check_gradients(lambda a: ad.broadcast_to(a, (4, 2, 3)), [_rand(2, 3)])

    def test_broadcast_to_expands_size_one_axes(self):
        check_gradients(lambda a: ad.broadcast_to(a, (3, 5)), [_rand(3, 1)])

    def test_broadcast_to_matches_tiled_concat(self):
        """broadcast_to of a row equals concat([row] * B) bitwise — the
        substitution the T-AHC head relies on."""
        row = Tensor(_rand(1, 6), requires_grad=True)
        tiled = ad.concat([row] * 5, axis=0)
        broadcast = ad.broadcast_to(row, (5, 6))
        np.testing.assert_array_equal(broadcast.data, tiled.data)
        broadcast.sum().backward()
        grad_b = row.grad.copy()
        row.grad = None
        tiled.sum().backward()
        np.testing.assert_array_equal(grad_b, row.grad)

    def test_pad(self):
        check_gradients(
            lambda a: ad.pad(a, ((0, 0), (1, 2))), [_rand(2, 3)]
        )

    def test_embedding(self):
        idx = np.array([[0, 1], [3, 1]])
        check_gradients(lambda w: ad.embedding(w, idx), [_rand(4, 5)])


class TestScalarDtype:
    """Python scalars are weak (NEP 50): they take the other operand's dtype."""

    PAIRS = [
        (lambda t: t + 1e-5, lambda a: a + 1e-5),
        (lambda t: 1e-5 + t, lambda a: 1e-5 + a),
        (lambda t: t - 3, lambda a: a - 3),
        (lambda t: 2.5 - t, lambda a: 2.5 - a),
        (lambda t: t * 0.1, lambda a: a * 0.1),
        (lambda t: 0.1 * t, lambda a: 0.1 * a),
        (lambda t: t / 7.0, lambda a: a / 7.0),
        (lambda t: 7.0 / t, lambda a: 7.0 / a),
        (lambda t: ad.maximum(t, 1.0), lambda a: np.maximum(a, 1.0)),
        (lambda t: ad.where(t.data > 1.0, t, 0.5), lambda a: np.where(a > 1.0, a, 0.5)),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_python_scalar_keeps_operand_dtype(self, dtype, pair):
        op, reference = self.PAIRS[pair]
        data = (np.abs(_rand(3, 4)) + 0.5).astype(dtype)
        out = op(Tensor(data, requires_grad=True))
        expected = reference(data)
        assert out.data.dtype == expected.dtype
        assert out.data.tobytes() == expected.tobytes()

    def test_bare_python_scalar_is_default_dtype(self):
        assert Tensor(2.0).dtype == np.float32
        assert Tensor(3).dtype == np.float32

    def test_numpy_scalars_are_strong(self):
        # np.float64 subclasses float but is a numpy type: it keeps float64,
        # as it does in numpy itself.
        t32 = Tensor(np.ones(3, dtype=np.float32))
        assert isinstance(np.float64(0.5), float)
        assert (t32 * np.float64(0.5)).dtype == np.float64
        assert (t32 / t32.data.sum()).dtype == np.float32
        t64 = Tensor(np.ones(3))
        assert (t64 / t64.data.sum()).dtype == np.float64
        assert (t64 / t64.sum()).dtype == np.float64

    def test_float64_gradcheck_with_scalar_constants(self):
        # Constants stay float64 in a float64 graph, so the finite-difference
        # check keeps its tight tolerance.
        check_gradients(lambda a: (1e-3 + a) * 0.37 / 3.0 - 1e-7, [_rand(3, 4)])


class TestDeadGradients:
    """An operand that needs no gradient gets ``None``, and the other
    operand's gradient is bitwise what it is when both need one."""

    CASES = [
        (ad.matmul, (2, 3, 4), (4, 5)),
        (ad.matmul, (4, 4), (2, 3, 4, 5)),  # a constant (N, N) support
        (ad.mul, (3, 4), (4,)),
        (ad.div, (3, 4), (3, 4)),
        (ad.add, (3, 4), (1, 4)),
        (ad.sub, (3, 4), (3, 1)),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_operand_gets_none(self, case, constant):
        op, shape_a, shape_b = self.CASES[case]
        data = [
            _rand(*shape_a).astype(np.float32),
            (np.abs(_rand(*shape_b)) + 0.5).astype(np.float32),
        ]
        both = op(*(Tensor(d, requires_grad=True) for d in data))
        grad = _rand(*both.shape).astype(np.float32)
        reference = both._backward(grad)
        one = op(*(Tensor(d, requires_grad=i != constant) for i, d in enumerate(data)))
        grads = one._backward(grad)
        assert grads[constant] is None
        live = 1 - constant
        assert grads[live].dtype == reference[live].dtype
        assert grads[live].tobytes() == reference[live].tobytes()


class TestComposite:
    def test_softmax_rows_sum_to_one(self):
        out = ad.softmax(Tensor(_rand(3, 5)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-5)

    def test_softmax_grad(self):
        weight = Tensor(_rand(3, 5))
        check_gradients(lambda a: ad.softmax(a, axis=-1) * weight, [_rand(3, 5)])

    def test_log_softmax_grad(self):
        weight = Tensor(_rand(2, 4))
        check_gradients(lambda a: ad.log_softmax(a, axis=-1) * weight, [_rand(2, 4)])

    def test_log_softmax_matches_log_of_softmax(self):
        a = _rand(4, 6)
        ls = ad.log_softmax(Tensor(a), axis=1).data
        np.testing.assert_allclose(ls, np.log(ad.softmax(Tensor(a), axis=1).data), rtol=1e-5)


class TestGraphMechanics:
    def test_gradient_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(_rand(2, 2), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(_rand(3), requires_grad=True)
        with ad.no_grad():
            y = x * 2.0
        assert y._backward is None
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x.detach() * 3.0 + x
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_int_input_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float64))
        assert t.dtype == np.float64

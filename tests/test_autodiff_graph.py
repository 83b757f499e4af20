"""Additional autodiff engine tests: graph mechanics and edge cases."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, no_grad, unbroadcast
from repro.autodiff.numerical import numerical_gradient


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, (2, 3))
        np.testing.assert_array_equal(out, grad)

    def test_sums_leading_axes(self):
        grad = np.ones((4, 2, 3))
        out = unbroadcast(grad, (2, 3))
        np.testing.assert_array_equal(out, np.full((2, 3), 4.0))

    def test_sums_singleton_axes(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, (2, 1))
        np.testing.assert_array_equal(out, np.full((2, 1), 3.0))

    def test_mixed(self):
        grad = np.ones((5, 2, 3))
        out = unbroadcast(grad, (1, 3))
        np.testing.assert_array_equal(out, np.full((1, 3), 10.0))


class TestGraphEdgeCases:
    def test_deep_chain_gradient(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(100):
            y = y + x  # y = 101 * x
        y.backward()
        np.testing.assert_allclose(x.grad, [101.0])

    def test_shared_subexpression(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        shared = x * x  # x^2
        out = shared * shared  # x^4 -> d/dx = 4 x^3 = 32
        out.backward()
        np.testing.assert_allclose(x.grad, [32.0])

    def test_nested_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                a = x * 2.0
            b = x * 3.0
        c = x * 4.0
        assert a._backward is None and b._backward is None
        assert c._backward is not None

    def test_backward_with_explicit_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 10.0, 100.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0, 200.0])

    def test_non_differentiable_leaf_untouched(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))  # constant
        (x * c).sum().backward()
        assert c.grad is None

    def test_zero_grad_resets(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor(np.ones(2), requires_grad=True))
        assert "requires_grad" not in repr(Tensor(np.ones(2)))

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestNumericalHelpers:
    def test_numerical_gradient_of_square(self):
        values = np.array([1.0, 2.0, 3.0])
        grad = numerical_gradient(lambda t: t * t, [values], wrt=0)
        np.testing.assert_allclose(grad, 2 * values, rtol=1e-5)

    def test_scatter_rows_gradient(self):
        """The ProbSparse scatter helper must route gradients to source rows."""
        from repro.nn.attention import _scatter_rows

        values = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        index = np.array([[0, 3]])
        out = _scatter_rows(values, index, length=5)
        assert out.shape == (1, 5, 3)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(values.grad, np.full((1, 2, 3), 2.0))


class TestDtypeHandling:
    def test_mixed_dtype_operations(self):
        a = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.ones(3, dtype=np.float64))
        out = a + b
        assert np.isfinite(out.data).all()

    def test_python_scalars_in_expressions(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = 2.0 * x + 1.0 - 0.5 / (x + 1.0)
        y.sum().backward()
        assert x.grad is not None


class TestGraphRelease:
    """``backward()`` consumes the graph it walks."""

    def test_backward_frees_intermediate_arrays(self):
        import weakref

        x = Tensor(np.linspace(-1.0, 1.0, 64).reshape(8, 8), requires_grad=True)
        hidden = ad.tanh(x * 2.0)
        alive = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        assert alive() is not None  # the graph still holds the activation
        loss.backward()
        assert alive() is None
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (ad.exp(x) * 2.0).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="already consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_new_graph_through_a_consumed_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        shared = ad.exp(x)
        shared.sum().backward()
        with pytest.raises(RuntimeError, match="already consumed"):
            (shared * 3.0).sum().backward()

    def test_consumed_graph_still_names_its_ops(self):
        from repro.autodiff.anomaly import NonFiniteError, detect_anomaly
        from repro.obs import metrics_scope, profile

        with metrics_scope() as registry, profile():
            x = Tensor(np.ones(3), requires_grad=True)
            (ad.tanh(x) * 2.0).sum().backward()
        snap = registry.snapshot()
        assert snap["profile.ops.tanh.backward"]["value"] == 1.0
        assert snap["profile.ops.mul.backward"]["value"] == 1.0
        with detect_anomaly(), np.errstate(over="ignore", divide="ignore"):
            t = Tensor(np.array([5e-324]), requires_grad=True)
            out = (ad.log(t) * 1.0).sum()
            with pytest.raises(NonFiniteError) as info:
                out.backward()
        assert (info.value.op, info.value.phase) == ("log", "backward")

"""Tests for autodiff anomaly mode: NaN/Inf provenance (``detect_anomaly``)."""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import NonFiniteError, Tensor, detect_anomaly, module_scope
from repro.autodiff.anomaly import (
    anomaly_enabled,
    array_stats,
    op_name_of,
    set_anomaly_default,
)
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.obs import profile, profiling_enabled
from repro.runtime import ProxyEvaluator, RetryPolicy
from repro.runtime import evaluator as evaluator_module

from tests.test_runtime import _candidates, _toy_task


def mode_eval(arch_hyper, task, config):
    """Score = which modes the evaluation ran under: anomaly 1, profiling 2."""
    return float(anomaly_enabled()) + 2.0 * float(profiling_enabled())


def _spawn_pool(monkeypatch):
    monkeypatch.setattr(
        evaluator_module,
        "ProcessPoolExecutor",
        functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        ),
    )


class TestModesReachEveryBackend:
    """The caller's anomaly and profiling modes ride in the evaluation
    payload, so every backend runs under them, whatever its thread or
    process start method."""

    BACKENDS = {
        "serial": dict(workers=1),
        "serial-timeout": dict(workers=1, retry_policy=RetryPolicy(timeout=60.0)),
        "fork-pool": dict(workers=2),
        "spawn-pool": dict(workers=2),
    }

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_modes_reach_backend(self, backend, monkeypatch):
        if backend == "spawn-pool":
            _spawn_pool(monkeypatch)
        evaluator = ProxyEvaluator(
            cache=None, eval_fn=mode_eval, **self.BACKENDS[backend]
        )
        task = _toy_task()
        assert evaluator.evaluate_many(_candidates(2), task) == [0.0, 0.0]
        with detect_anomaly(), profile():
            assert evaluator.evaluate_many(_candidates(2), task) == [3.0, 3.0]
        assert evaluator.stats.degradations == 0

    def test_process_default_reaches_spawn_pool(self, monkeypatch):
        _spawn_pool(monkeypatch)
        evaluator = ProxyEvaluator(workers=2, cache=None, eval_fn=mode_eval)
        try:
            set_anomaly_default(True)
            assert anomaly_enabled()
            scores = evaluator.evaluate_many(_candidates(2), _toy_task())
        finally:
            set_anomaly_default(False)
        assert scores == [1.0, 1.0]
        assert evaluator.stats.degradations == 0
        assert not anomaly_enabled()


class TestMode:
    def test_disabled_by_default(self):
        assert not anomaly_enabled()

    def test_context_manager_scopes_the_flag(self):
        with detect_anomaly():
            assert anomaly_enabled()
            with detect_anomaly(False):
                assert not anomaly_enabled()
            assert anomaly_enabled()
        assert not anomaly_enabled()

    def test_disabled_mode_keeps_legacy_behavior(self):
        # Without anomaly mode, a non-finite value flows through silently
        # (the historical semantics every existing call site relies on).
        with np.errstate(over="ignore"):
            out = ad.exp(Tensor(np.array([1000.0], dtype=np.float32)))
        assert np.isinf(out.data).all()

    def test_disabled_mode_does_not_stamp_op_names(self):
        t = ad.exp(Tensor(1.0, requires_grad=True))
        assert t._op is None
        with detect_anomaly():
            t = ad.exp(Tensor(1.0, requires_grad=True))
        assert t._op == "exp"


class TestForwardProvenance:
    def test_overflow_names_the_op(self):
        with detect_anomaly(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as info:
                ad.exp(Tensor(np.array([1000.0], dtype=np.float32)))
        err = info.value
        assert err.op == "exp"
        assert err.phase == "forward"
        assert "exp" in str(err)

    def test_nan_names_the_op(self):
        with detect_anomaly(), np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError) as info:
                ad.log(Tensor(np.array([-1.0], dtype=np.float32)))
        assert info.value.op == "log"

    def test_first_bad_op_wins_in_a_composed_expression(self):
        a = Tensor(np.array([0.5], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([500.0], dtype=np.float32), requires_grad=True)
        with detect_anomaly(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as info:
                # tanh is healthy; the planted overflow lives in exp.
                ad.tanh(a) + ad.exp(b * 10.0)
        assert info.value.op == "exp"

    def test_input_stats_recorded(self):
        values = np.array([1.0, 2000.0], dtype=np.float32)
        with detect_anomaly(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as info:
                ad.exp(Tensor(values))
        (stats,) = info.value.input_stats
        assert stats["shape"] == (2,)
        assert stats["min"] == 1.0
        assert stats["max"] == 2000.0
        assert stats["non_finite"] == 0

    def test_healthy_graph_unaffected(self):
        with detect_anomaly():
            t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            out = (ad.exp(t) * 2.0).sum()
            out.backward()
        assert np.isfinite(t.grad).all()


class TestBackwardProvenance:
    def test_infinite_gradient_names_the_op(self):
        # log(5e-324) is finite forward; its gradient 1/5e-324 overflows.
        with detect_anomaly(), np.errstate(over="ignore", divide="ignore"):
            t = Tensor(np.array([5e-324]), requires_grad=True)
            out = ad.log(t).sum()
            assert np.isfinite(out.data).all()
            with pytest.raises(NonFiniteError) as info:
                out.backward()
        err = info.value
        assert err.op == "log"
        assert err.phase == "backward"

    def test_backward_check_requires_anomaly_at_backward_time(self):
        with np.errstate(over="ignore", divide="ignore"):
            t = Tensor(np.array([5e-324]), requires_grad=True)
            out = ad.log(t).sum()
            out.backward()  # disabled: inf gradient flows silently
        assert np.isinf(t.grad).all()


class TestModulePath:
    def test_module_chain_in_error(self):
        class Exploder(Module):
            def forward(self, x):
                return ad.exp(x * 100.0)

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Exploder()

            def forward(self, x):
                return self.inner(x)

        with detect_anomaly(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as info:
                Outer()(Tensor(np.array([50.0], dtype=np.float32)))
        assert info.value.module_path == "Outer/Exploder"
        assert "Outer/Exploder" in str(info.value)

    def test_module_scope_stack(self):
        from repro.autodiff.anomaly import current_module_path

        with module_scope("A"), module_scope("B"):
            assert current_module_path() == "A/B"
        assert current_module_path() == ""

    def test_linear_module_named(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.data[...] = 1e30  # float32: the product overflows
        x = Tensor(np.full((1, 2), 1e30, dtype=np.float32))
        with detect_anomaly(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as info:
                layer(x)
        assert "Linear" in info.value.module_path


class TestHelpers:
    def test_op_name_of_derives_from_qualname(self):
        # Op backwards are closures of module-level op functions, so their
        # qualname leads with the op name (e.g. "exp.<locals>.backward").
        def backward(grad):
            return (grad,)

        backward.__qualname__ = "exp.<locals>.backward"
        assert op_name_of(backward) == "exp"

    def test_op_name_of_handles_missing_qualname(self):
        class Opaque:
            pass

        assert op_name_of(Opaque()) == "<unknown>"

    def test_array_stats_mixed(self):
        stats = array_stats(np.array([1.0, np.nan, 3.0, np.inf]))
        assert stats["non_finite"] == 2
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0

    def test_array_stats_all_bad(self):
        stats = array_stats(np.array([np.nan, np.nan]))
        assert stats["non_finite"] == 2
        assert "min" not in stats

"""Fused elementwise kernels for profiler-hot op chains.

``--profile`` runs of proxy training show two elementwise chains dominating
the non-gemm time: the gated GDCC activation ``tanh(f) * sigmoid(g)`` (three
graph nodes, five full-size temporaries per forward) and the MAE training
loss ``mean(|prediction - target|)`` (three nodes).  Each fused kernel here
collapses one such chain into a single autodiff node computing the *same
floating-point operations in the same order* as the chain it replaces — so
fused and unfused paths are bitwise identical, forward and backward — while
eliminating the intermediate ``Tensor`` bookkeeping.

Two switches fall back to the unfused chains:

* ``$REPRO_REFERENCE_KERNELS`` — the honest "before" path used by
  ``benchmarks/bench_train_step.py`` and the equivalence tests,
* anomaly mode — the unfused chain names the exact op (``tanh``,
  ``sigmoid``, ``mul``, ...) in :class:`~repro.autodiff.anomaly.NonFiniteError`
  provenance, which fusion would coarsen.
"""

from __future__ import annotations

import numpy as np

from ..settings import Settings
from .anomaly import anomaly_enabled
from .tensor import Tensor, _needs_grad, as_tensor, make_op, unbroadcast


def reference_kernels() -> bool:
    """Whether ``$REPRO_REFERENCE_KERNELS`` forces the pre-optimization
    kernel paths (per-tap conv loops, unfused elementwise chains).  Read on
    every call: the train-step benchmark flips it between rounds."""
    return Settings.read("reference_kernels")


def fused_kernels_enabled() -> bool:
    """Fused kernels are on unless the reference switch or anomaly mode
    (which needs per-op provenance) asks for the unfused chains."""
    return not (reference_kernels() or anomaly_enabled())


def gated_tanh_sigmoid(filter_in, gate_in) -> Tensor:
    """Fused WaveNet gate: ``tanh(filter_in) * sigmoid(gate_in)``.

    One graph node replacing the ``tanh`` -> ``sigmoid`` -> ``mul`` chain of
    :class:`~repro.operators.gdcc.GDCC`, bitwise-identical to it in both
    passes (same ops, same order, same stable sigmoid formulation).
    """
    f, g = as_tensor(filter_in), as_tensor(gate_in)
    t = np.tanh(f.data)
    # Same stable single-divide sigmoid as repro.autodiff.ops.sigmoid —
    # bitwise-identical element math keeps fused == unfused exact.
    positive = g.data >= 0
    e = np.exp(np.where(positive, -g.data, g.data))
    numerator = np.where(positive, 1.0, e)
    np.add(e, 1.0, out=e)
    s = np.divide(numerator, e, out=numerator)
    out = t * s

    def backward(grad):
        # Same expressions (and evaluation order) the unfused chain's
        # backward closures produce: through mul then tanh on the filter
        # side, through mul then sigmoid on the gate side.
        gf = (grad * s) * (1.0 - t * t)
        gg = ((grad * t) * s) * (1.0 - s)
        return unbroadcast(gf, f.shape), unbroadcast(gg, g.shape)

    return make_op(out, (f, g), backward)


def mean_absolute_error(prediction, target) -> Tensor:
    """Fused MAE loss: ``mean(|prediction - target|)`` as one node.

    Bitwise-identical to the ``sub`` -> ``absolute`` -> ``mean`` chain; the
    backward is the chain's composition ``±(grad / n) * sign(diff)``.
    """
    p, t = as_tensor(prediction), as_tensor(target)
    diff = p.data - t.data
    out = np.abs(diff).mean()
    count = diff.size

    def backward(grad):
        scaled = grad / count
        signed = scaled * np.sign(diff)
        gt = unbroadcast(np.negative(signed), t.shape) if _needs_grad(t) else None
        return unbroadcast(signed, p.shape), gt

    return make_op(out, (p, t), backward)

"""What enabling autodiff anomaly mode costs a training step.

Anomaly mode (``repro.autodiff.detect_anomaly``) adds a finite check on
every op output in the forward pass and on every gradient in the backward
pass, for NaN/Inf provenance.  It is a debugging switch: a user turns it on
to find the op that produced the first non-finite value, so it must stay
cheap enough to leave on for a whole run.  The disabled default costs one
thread-local flag read per recorded op, which no in-tree baseline can time
against (an engine without the flag no longer exists).

The two configurations, ``off`` and ``on``, take turns run by run through
:mod:`paired_gate`: a trial times each as the best of its ``REPEATS`` runs,
and the gate takes the median of the paired ratios ``on/off`` over
``TRIALS`` trials against ``BUDGET``, with their interquartile range
within the budget's margin.  Both configurations must also produce
bitwise-identical gradients: the checks observe, never change.

``--check`` runs the whole thing as a CI gate: exit 1 when the median ratio
exceeds the budget or the spread exceeds the budget's margin.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.autodiff import Tensor, detect_anomaly
from repro.experiments import ResultTable, print_and_save
from repro.nn.linear import Linear
from repro.nn.loss import mse_loss

import paired_gate

BATCH = 32
FEATURES = 64
LAYERS = 4
STEPS = 60
WARMUP = 10
TRIALS = 30
REPEATS = 3  # a trial's time is the best of this many runs
MODES = ("off", "on")

# The largest median slowdown enabling anomaly mode may cost, as a ratio
# over anomaly off.  Measured when the budget was set (2-vCPU shared VM,
# five runs of the gate): medians 1.44-1.46, interquartile ranges 0.06-0.21.
# Later, 24 runs read 1.38-1.56 and 11 runs with every finite check done
# three times 1.68-1.77: no budget rounded to 0.05 leaves both sides 0.05 of
# room, so it stays (ROADMAP item 1).
BUDGET = 1.75


def _workload():
    rng = np.random.default_rng(0)
    layers = [Linear(FEATURES, FEATURES, rng=rng) for _ in range(LAYERS)]
    params = [p for layer in layers for p in layer.parameters()]
    x = Tensor(rng.normal(size=(BATCH, FEATURES)).astype(np.float32))
    y = Tensor(rng.normal(size=(BATCH, FEATURES)).astype(np.float32))
    return layers, params, x, y


def _run_steps(layers, params, x, y, steps):
    for _ in range(steps):
        h = x
        for layer in layers:
            h = layer(h).tanh()
        loss = mse_loss(h, y)
        for p in params:
            p.grad = None
        loss.backward()
    return [p.grad for p in params]


def gate() -> list[str]:
    """Time both configurations, print and save the table; why the gate
    fails, one line per reason."""
    workload = _workload()
    grads: dict[str, list] = {}
    for mode in MODES:
        with detect_anomaly(mode == "on"):
            _run_steps(*workload, WARMUP)

    def run(mode: str) -> float:
        with detect_anomaly(mode == "on"):
            start = time.perf_counter()
            grads[mode] = _run_steps(*workload, STEPS)
            return time.perf_counter() - start

    times = paired_gate.interleave(MODES, run, TRIALS, REPEATS)
    for off, on in zip(grads["off"], grads["on"]):
        np.testing.assert_array_equal(off, on)

    ratio = paired_gate.paired_ratio("on/off", times["on"], times["off"])
    table = ResultTable(title="Anomaly-mode overhead (forward+backward)")
    row = f"{STEPS} steps, {LAYERS}x Linear({FEATURES}), {TRIALS} trials"
    for mode in MODES:
        table.add(row, f"anomaly {mode} (median)", "value",
                  f"{statistics.median(times[mode]) * 1e3:.1f}ms")
    paired_gate.add_rows(table, row, ratio, BUDGET)
    print_and_save(table, "anomaly_overhead")
    return paired_gate.ceiling_failures(ratio, BUDGET)


def test_anomaly_overhead(benchmark):
    assert not benchmark.pedantic(gate, iterations=1, rounds=1)


if __name__ == "__main__":
    paired_gate.main(__doc__, gate)

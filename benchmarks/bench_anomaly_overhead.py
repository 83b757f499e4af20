"""What enabling autodiff anomaly mode costs a training step.

Anomaly mode (``repro.autodiff.detect_anomaly``) adds a finite check on
every op output in the forward pass and on every gradient in the backward
pass, for NaN/Inf provenance.  It is a debugging switch: a user turns it on
to find the op that produced the first non-finite value, so it must stay
cheap enough to leave on for a whole run.  The disabled default costs one
thread-local flag read per recorded op, which no in-tree baseline can time
against (an engine without the flag no longer exists).

The two configurations, ``off`` and ``on``, take turns run by run, in a
rotating order, so a slow spell of a shared host lands on both alike.  A
trial times each as the best of its ``REPEATS`` runs and yields the paired
ratio ``on/off``; the gate takes its median over ``TRIALS`` trials against
``BUDGET``.  The spread is the interquartile range of the paired ratios; it
must stay below the budget's margin, because a gate whose noise exceeds its
budget cannot tell a regression from luck.  Both configurations must also
produce bitwise-identical gradients: the checks observe, never change.

``--check`` runs the whole thing as a CI gate: non-zero exit when the
median ratio exceeds the budget or the spread exceeds the budget's margin.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.autodiff import Tensor, detect_anomaly
from repro.experiments import ResultTable, print_and_save
from repro.nn.linear import Linear
from repro.nn.loss import mse_loss

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


def time_interleaved() -> tuple[dict[str, list[float]], dict[str, list]]:
    """Per-trial wall times of both configurations and their last grads."""
    workload = _workload()
    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    grads: dict[str, list] = {}
    for mode in MODES:
        with detect_anomaly(mode == "on"):
            _run_steps(*workload, WARMUP)
    for trial in range(TRIALS):
        best = dict.fromkeys(MODES, float("inf"))
        for repeat in range(REPEATS):
            shift = (trial + repeat) % len(MODES)
            for mode in MODES[shift:] + MODES[:shift]:
                with detect_anomaly(mode == "on"):
                    start = time.perf_counter()
                    grads[mode] = _run_steps(*workload, STEPS)
                    best[mode] = min(best[mode], time.perf_counter() - start)
        for mode in MODES:
            times[mode].append(best[mode])
    return times, grads


def run_overhead():
    """The result table and the ``(median ratio, spread)`` of on/off."""
    times, grads = time_interleaved()
    for off, on in zip(grads["off"], grads["on"]):
        np.testing.assert_array_equal(off, on)

    paired = [on / off for on, off in zip(times["on"], times["off"])]
    q = statistics.quantiles(paired, n=4)
    median = statistics.median(paired)
    table = ResultTable(title="Anomaly-mode overhead (forward+backward)")
    row = f"{STEPS} steps, {LAYERS}x Linear({FEATURES}), {TRIALS} trials"
    for mode in MODES:
        table.add(row, f"anomaly {mode} (median)", "value",
                  f"{statistics.median(times[mode]) * 1e3:.1f}ms")
    table.add(row, "on/off ratio", "value", f"{median:.3f}")
    table.add(row, "on/off IQR", "value", f"{q[0]:.3f}-{q[2]:.3f}")
    table.add(row, "on/off budget", "value", f"{BUDGET:.2f}")
    return table, median, q[2] - q[0]


def gate_failures(median: float, spread: float) -> list[str]:
    """Why the gate fails, one line per reason; empty when it passes."""
    failures = []
    if median > BUDGET:
        failures.append(f"on/off median ratio {median:.3f} exceeds budget {BUDGET:.2f}")
    if spread > BUDGET - 1.0:
        failures.append(
            f"on/off spread {spread:.3f} exceeds the budget's margin "
            f"{BUDGET - 1.0:.2f}: too noisy to gate"
        )
    return failures


def test_anomaly_overhead(benchmark):
    table, median, spread = benchmark.pedantic(run_overhead, iterations=1, rounds=1)
    print_and_save(table, "anomaly_overhead")
    assert not gate_failures(median, spread)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the ratio exceeds its budget or the spread its margin",
    )
    args = parser.parse_args()
    table, median, spread = run_overhead()
    print_and_save(table, "anomaly_overhead")
    print(f"on/off ratio {median:.3f} (spread {spread:.3f}, budget {BUDGET:.2f})")
    failures = gate_failures(median, spread)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        sys.exit(1)

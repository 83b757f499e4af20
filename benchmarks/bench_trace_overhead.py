"""What enabling telemetry costs the ranking hot path — and its bitwise inertness.

The tracing/metrics contract (``docs/observability.md``): telemetry is
observed, never fed back into computation, so every score is
bitwise-identical with it on or off; and turning it on costs the hot path
only a bounded slowdown.  Three configurations run the same ranking
workload (``STEPS`` win matrices over ``CANDIDATES`` candidates):

* ``off`` — no tracer;
* ``tracing`` — spans written to a JSONL file;
* ``service`` — the daemon's telemetry: spans teed into a bounded
  :class:`SpanBuffer` under a correlation scope, with the metrics-history
  sampler thread persisting registry snapshots into a sqlite registry.

The configurations take turns run by run through :mod:`paired_gate`: a
trial times each as the best of its ``REPEATS`` runs, and the gate takes
the medians of the paired ratios ``tracing/off`` and ``service/off`` over
``TRIALS`` trials against the budgets below, with their interquartile
ranges within the budgets' margins.  The sampler runs at
``SAMPLER_INTERVAL``, well below the length of one run, so it writes
snapshots inside every timed run; the gate fails if the timed runs
recorded none.  The bitwise half is asserted exactly: every configuration
produces the same win matrices, traced and untraced proxy evaluation the
same scores, and the dashboard renders.

``--check`` runs the whole thing as a CI gate: exit 1 when a median ratio
exceeds its budget, a spread exceeds the budget's margin or the sampler
wrote nothing while timed (bitwise mismatches already raise).
"""

from __future__ import annotations

import contextlib
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.comparator.ahc import AHC
from repro.comparator.scoring import RankingEngine
from repro.experiments import ResultTable, print_and_save
from repro.obs import (
    SpanBuffer,
    buffered_tracer,
    configure_tracing,
    correlation_scope,
    file_tracer,
    global_registry,
    render_dashboard,
    tracer_scope,
)
from repro.space import JointSearchSpace

import paired_gate

CANDIDATES = 24
STEPS = 8
WARMUP = 2
TRIALS = 30
REPEATS = 7  # a trial's time is the best of this many runs
MODES = ("off", "tracing", "service")
# Seconds between metrics-history snapshots in the ``service`` configuration.
# One run takes ~20 ms, so the sampler writes several snapshots inside each
# timed run (the daemon's default is 30 s: this is its worst case).
SAMPLER_INTERVAL = 0.005

# The largest median slowdown enabling each layer may cost, as a ratio over
# the telemetry-off path.  Measured when the budgets were set (2-vCPU shared
# VM, eight runs of the gate): tracing 1.02-1.04, service 1.08-1.11 (the
# sampler's snapshots, the buffer tee and the correlation scope), with
# interquartile ranges of 0.03-0.09.  Best-of-3 trials spread up to 0.14.
BUDGETS = {"tracing": 1.10, "service": 1.15}


def _workload():
    space = JointSearchSpace()
    candidates = space.sample_batch(CANDIDATES, np.random.default_rng(0))
    model = AHC(seed=0)
    return space, model, candidates


def _run_steps(space, model, candidates, steps):
    wins = None
    for _ in range(steps):
        # A fresh engine per step keeps the per-step work constant (no
        # embedding cache carrying over between repeats).
        engine = RankingEngine(model, space=space.hyper_space)
        wins = engine.win_matrix(candidates)
    return wins


class _Telemetry:
    """The tracer (and, for ``service``, sampler) of one configuration."""

    def __init__(self, mode: str, trace_dir: Path) -> None:
        from repro.service import ServiceDB

        self.mode = mode
        self.tracer = None
        self.db = None
        self.samples = 0  # metrics-history snapshots the sampler wrote
        if mode != "off":
            self.tracer = file_tracer(trace_dir / f"{mode}.jsonl")
        if mode == "service":
            self.tracer = buffered_tracer(SpanBuffer(), base=self.tracer)
            self.db = ServiceDB(trace_dir / "registry.sqlite")

    @contextlib.contextmanager
    def active(self):
        from repro.service import MetricsSampler

        if self.mode != "service":
            with tracer_scope(self.tracer):
                yield
            return
        sampler = MetricsSampler(
            self.db, interval=SAMPLER_INTERVAL, source="bench"
        ).start()
        try:
            with tracer_scope(self.tracer), correlation_scope("bench-job"):
                yield
        finally:
            sampler.stop()
            self.samples += sampler.samples

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()
        if self.db is not None:
            self.db.close()


def _cheap_eval(arch_hyper, task, config):
    """Deterministic, instant eval derived from the content fingerprint."""
    from repro.runtime import proxy_fingerprint

    digest = proxy_fingerprint(arch_hyper, task, config)
    return int(digest[:8], 16) / 0xFFFFFFFF + 0.25


def check_bitwise_scores() -> None:
    """Traced and untraced proxy evaluations must agree bitwise."""
    from repro.data import CTSData
    from repro.runtime import ProxyEvaluator
    from repro.tasks import Task

    rng = np.random.default_rng(0)
    values = rng.normal(10, 2, size=(4, 200, 1)).astype(np.float32)
    task = Task(CTSData("bench", values, np.ones((4, 4), dtype=np.float32), "test"), p=6, q=3)
    candidates = JointSearchSpace().sample_batch(4, np.random.default_rng(1))
    plain = ProxyEvaluator(workers=1, cache=None, eval_fn=_cheap_eval).evaluate_many(
        candidates, task
    )
    with tempfile.TemporaryDirectory() as tmp:
        configure_tracing(Path(tmp) / "eval.jsonl")
        try:
            traced = ProxyEvaluator(
                workers=1, cache=None, eval_fn=_cheap_eval
            ).evaluate_many(candidates, task)
        finally:
            configure_tracing(None)
    assert plain == traced, "tracing changed proxy scores"


def gate() -> list[str]:
    """Time every configuration, print and save the table; why the gate
    fails, one line per reason."""
    space, model, candidates = _workload()
    wins: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as tmp:
        telemetry = {mode: _Telemetry(mode, Path(tmp)) for mode in MODES}

        def run(mode: str) -> float:
            with telemetry[mode].active():
                start = time.perf_counter()
                wins[mode] = _run_steps(space, model, candidates, STEPS)
                return time.perf_counter() - start

        try:
            for mode in MODES:
                with telemetry[mode].active():
                    _run_steps(space, model, candidates, WARMUP)
            telemetry["service"].samples = 0  # count the timed runs only
            times = paired_gate.interleave(MODES, run, TRIALS, REPEATS)
        finally:
            for entry in telemetry.values():
                entry.close()
    samples = telemetry["service"].samples
    for mode in MODES[1:]:
        np.testing.assert_array_equal(wins["off"], wins[mode])
    check_bitwise_scores()
    # The dashboard renders from the same snapshots; exercising it here
    # keeps the gate honest about the whole enabled surface.
    page = render_dashboard(
        {"title": "bench", "jobs": {}, "workers": [],
         "metrics": global_registry().snapshot(), "cache": {}, "traces": []}
    )
    assert "<html" in page

    table = ResultTable(title="Telemetry overhead (ranking hot path)")
    row = f"{STEPS} win matrices over {CANDIDATES} candidates, {TRIALS} trials"
    for mode in MODES:
        table.add(row, f"{mode} (median)", "value", f"{statistics.median(times[mode]) * 1e3:.1f}ms")
    table.add(row, "service sampler snapshots", "value", str(samples))
    failures = []
    if samples == 0:
        failures.append("the metrics sampler wrote no snapshot during the timed runs")
    for mode in MODES[1:]:
        ratio = paired_gate.paired_ratio(f"{mode}/off", times[mode], times["off"])
        paired_gate.add_rows(table, row, ratio, BUDGETS[mode])
        failures += paired_gate.ceiling_failures(ratio, BUDGETS[mode])
    print_and_save(table, "trace_overhead")
    return failures


def test_trace_overhead(benchmark):
    assert not benchmark.pedantic(gate, iterations=1, rounds=1)


if __name__ == "__main__":
    paired_gate.main(__doc__, gate)

"""The decision logic of ``benchmarks/paired_gate.py``, without timing.

The overhead and speedup gates judge wall times only through this module,
so its rotation, best-of-repeats, quartiles and budget and floor checks are
held here with fake runs and fixed ratios.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
from collections import Counter
from pathlib import Path

import pytest

PAIRED_GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "paired_gate.py"
_spec = importlib.util.spec_from_file_location("paired_gate", PAIRED_GATE)
paired_gate = importlib.util.module_from_spec(_spec)
sys.modules["paired_gate"] = paired_gate  # dataclasses resolve annotations through it
_spec.loader.exec_module(paired_gate)


def _ratio(values):
    return paired_gate.paired_ratio("on/off", values, [1.0] * len(values))


def _call_order(modes, trials, repeats):
    calls = []

    def run(mode):
        calls.append(mode)
        return 1.0

    paired_gate.interleave(modes, run, trials, repeats)
    return calls


@pytest.mark.parametrize("modes", [("off", "on"), ("off", "tracing", "service")])
@pytest.mark.parametrize("trials,repeats", [(6, 1), (6, 3), (5, 4)])
def test_each_mode_leads_equally_often(modes, trials, repeats):
    calls = _call_order(modes, trials, repeats)
    rounds = [calls[i : i + len(modes)] for i in range(0, len(calls), len(modes))]
    assert len(rounds) == trials * repeats
    assert all(sorted(r) == sorted(modes) for r in rounds)
    leads = Counter(r[0] for r in rounds)
    if trials * repeats % len(modes) == 0:
        assert set(leads.values()) == {trials * repeats // len(modes)}
    else:
        assert max(leads.values()) - min(leads.values()) <= 1


def test_one_repeat_rotates_by_trial():
    modes = ("reference", "optimized")
    calls = _call_order(modes, trials=5, repeats=1)
    leads = calls[:: len(modes)]
    assert leads == [modes[trial % len(modes)] for trial in range(5)]


def test_interleave_keeps_the_best_of_repeats():
    durations = {
        "off": iter([3.0, 1.0, 2.0, 5.0, 4.0, 6.0]),
        "on": iter([2.0, 2.5, 9.0, 0.5, 7.0, 8.0]),
    }
    times = paired_gate.interleave(("off", "on"), lambda mode: next(durations[mode]), 2, 3)
    assert times == {"off": [1.0, 4.0], "on": [2.0, 0.5]}


@pytest.mark.parametrize(
    "values",
    [
        [1.02, 1.10, 0.98, 1.31, 1.05, 1.07, 1.12],
        [1.5, 1.6, 1.7, 1.8],
        [2.0, 1.0, 3.0, 1.5, 2.5, 1.25, 1.75, 2.25, 1.1, 2.9],
    ],
)
def test_median_and_iqr_match_statistics(values):
    ratio = _ratio(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert ratio.values == values
    assert ratio.median == statistics.median(values)
    assert (ratio.q1, ratio.q3) == (q1, q3)
    assert ratio.spread == q3 - q1


def test_ratio_divides_numerator_by_denominator():
    ratio = paired_gate.paired_ratio("tracing/off", [2.0, 3.0, 4.5], [1.0, 2.0, 3.0])
    assert ratio.values == [2.0, 1.5, 1.5]
    assert ratio.median == 1.5


def _fixed(median, q1, q3):
    return paired_gate.PairedRatio("on/off", [], median, q1, q3)


def test_ceiling_passes_within_budget_and_margin():
    assert paired_gate.ceiling_failures(_fixed(1.10, 1.05, 1.14), budget=1.15) == []


def test_ceiling_fails_on_the_median_alone():
    (failure,) = paired_gate.ceiling_failures(_fixed(1.20, 1.18, 1.22), budget=1.15)
    assert "on/off median ratio 1.200 exceeds budget 1.15" in failure


def test_ceiling_fails_on_the_spread_alone():
    (failure,) = paired_gate.ceiling_failures(_fixed(1.10, 0.95, 1.14), budget=1.15)
    assert "on/off spread 0.190 exceeds the budget's margin 0.15" in failure


def test_floor_fails_below_and_passes_at_the_floor():
    assert paired_gate.floor_failures(_fixed(1.49, 1.4, 1.6), floor=1.5)
    assert paired_gate.floor_failures(_fixed(1.5, 1.4, 1.6), floor=1.5) == []


def test_a_check_aimed_the_wrong_way_fails():
    # 1.2 passes as an overhead under a 1.5 budget, but as a speedup it
    # misses a 1.5 floor: the two checks are not interchangeable.
    ratio = _fixed(1.2, 1.15, 1.25)
    assert paired_gate.ceiling_failures(ratio, budget=1.5) == []
    (failure,) = paired_gate.floor_failures(ratio, floor=1.5)
    assert "median ratio 1.200 is below floor 1.50" in failure


def test_verdict_prints_one_fail_line_per_failure(capsys):
    assert paired_gate.verdict([]) == 0
    assert paired_gate.verdict(["a", "b"]) == 1
    assert capsys.readouterr().err.splitlines() == ["FAIL: a", "FAIL: b"]

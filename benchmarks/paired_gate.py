"""The paired-ratio method the overhead and speedup gates share.

A gate times two or more configurations ("modes") of one workload on the
same machine and judges a ratio between them, not absolute seconds
recorded elsewhere.  The modes take turns in a rotating order, so a slow
spell of a shared host lands on all of them alike.  The gate takes the
median of the per-trial paired ratios with their interquartile range (the
spread): an overhead must stay within its budget and its spread within the
budget's margin over 1.0, because a gate whose noise exceeds its budget
cannot tell a regression from luck; a speedup must stay above its floor.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass


def interleave(
    modes: Sequence[str], run: Callable[[str], float], trials: int, repeats: int = 1
) -> dict[str, list[float]]:
    """Each mode's per-trial time: the best of ``repeats`` calls of
    ``run(mode)``, which returns seconds.  Run ``r`` of trial ``t`` starts
    the rotation at ``modes[(t + r) % len(modes)]``."""
    times: dict[str, list[float]] = {mode: [] for mode in modes}
    for trial in range(trials):
        best = dict.fromkeys(modes, float("inf"))
        for repeat in range(repeats):
            shift = (trial + repeat) % len(modes)
            for mode in modes[shift:] + modes[:shift]:
                best[mode] = min(best[mode], run(mode))
        for mode in modes:
            times[mode].append(best[mode])
    return times


@dataclass(frozen=True)
class PairedRatio:
    """Per-trial ratios of two modes' times and their median and quartiles."""

    name: str
    values: list[float]
    median: float
    q1: float
    q3: float

    @property
    def spread(self) -> float:
        """The interquartile range."""
        return self.q3 - self.q1


def paired_ratio(name: str, numerator: list[float], denominator: list[float]) -> PairedRatio:
    """The ratios ``numerator[i] / denominator[i]`` of each trial."""
    values = [a / b for a, b in zip(numerator, denominator, strict=True)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return PairedRatio(name, values, statistics.median(values), q1, q3)


def ceiling_failures(ratio: PairedRatio, budget: float) -> list[str]:
    """Why an overhead ratio fails its budget, one line per reason."""
    failures = []
    if ratio.median > budget:
        failures.append(f"{ratio.name} median ratio {ratio.median:.3f} exceeds budget {budget:.2f}")
    if ratio.spread > budget - 1.0:
        failures.append(
            f"{ratio.name} spread {ratio.spread:.3f} exceeds the budget's margin "
            f"{budget - 1.0:.2f}: too noisy to gate"
        )
    return failures


def floor_failures(ratio: PairedRatio, floor: float) -> list[str]:
    """Why a speedup ratio fails its floor: one line, or none."""
    if ratio.median < floor:
        return [f"{ratio.name} median ratio {ratio.median:.3f} is below floor {floor:.2f}"]
    return []


def add_rows(table, row: str, ratio: PairedRatio, budget: float) -> None:
    """The ratio, IQR and budget rows of a :class:`ResultTable`."""
    table.add(row, f"{ratio.name} ratio", "value", f"{ratio.median:.3f}")
    table.add(row, f"{ratio.name} IQR", "value", f"{ratio.q1:.3f}-{ratio.q3:.3f}")
    table.add(row, f"{ratio.name} budget", "value", f"{budget:.2f}")


def arg_parser(doc: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 when the gate fails")
    return parser


def verdict(failures: list[str]) -> int:
    """Print one ``FAIL:`` line per failure; the exit status of a check."""
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(doc: str, gate: Callable[[], list[str]]) -> None:
    """Run ``gate`` (it measures, prints its table and returns its failures)
    from the command line; with ``--check`` a failure exits 1."""
    check = arg_parser(doc).parse_args().check
    status = verdict(gate())
    sys.exit(status if check else 0)

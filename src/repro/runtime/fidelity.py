"""Successive-halving fidelity schedules over proxy evaluations.

ROADMAP item 4: most candidates are eliminated early, yet a flat sweep pays
the full ``k``-epoch proxy (`ProxyConfig.epochs`) for every one.  A
:class:`FidelitySchedule` describes a successive-halving ladder — score the
whole pool at a small epoch budget, keep the best ``1/eta`` fraction, promote
them to the next (``eta``-times larger) budget, repeat until the final rung
runs at full fidelity.  The :class:`FidelityScheduler` executes that ladder
through an existing :class:`~repro.runtime.evaluator.ProxyEvaluator`, so each
rung inherits the serial/pool backends, the eval cache, retry/timeout/
sentinel semantics, and checkpointed resume unchanged.  A flat campaign is
the one-rung ladder (:data:`FLAT_SCHEDULE`): its only rung is the plain
full-fidelity evaluation of every candidate.

Determinism: rung composition is a pure function of the (deterministic)
scores, promotions warm-resume bitwise-identically (see
:mod:`repro.runtime.warm`), and partial-fidelity scores live under their own
fingerprints (:func:`~repro.runtime.fingerprint.proxy_fingerprint` includes
``fidelity_epochs`` only when partial) — so an interrupted campaign resumed
mid-rung from an :class:`~repro.runtime.checkpoint.EvalProgress` finishes
bitwise-identically, and no low-fidelity score can ever be confused with a
full-fidelity one.

Schedule grammar (CLI/env): ``eta:rungs:min-epochs``, e.g. ``3:3:1`` — see
``docs/fidelity.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..obs.metrics import get_registry
from ..obs.trace import span
from ..space.archhyper import ArchHyper
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task
from ..utils.validation import ConfigError, require_int_at_least
from .warm import WarmStore


@dataclass(frozen=True)
class FidelitySchedule:
    """A successive-halving ladder: ``eta``, rung count, smallest budget.

    ``rungs=1`` is the flat full-fidelity sweep (every candidate trains
    the full budget, nothing is culled).
    """

    eta: int = 3
    rungs: int = 3
    min_epochs: int = 1

    def __post_init__(self) -> None:
        require_int_at_least(self.eta, 2, "eta")
        require_int_at_least(self.rungs, 1, "rungs")
        require_int_at_least(self.min_epochs, 1, "min_epochs")

    def spec(self) -> str:
        """The canonical ``eta:rungs:min-epochs`` string form."""
        return f"{self.eta}:{self.rungs}:{self.min_epochs}"

    def rung_epochs(self, full_epochs: int) -> list[int]:
        """Strictly-ascending epoch budgets; the last is always full fidelity.

        Budgets grow geometrically (``min_epochs * eta**i``) and are capped
        at ``full_epochs``; duplicate rungs collapse, so a schedule too
        aggressive for a small ``full_epochs`` degrades gracefully.
        """
        require_int_at_least(full_epochs, 1, "full_epochs")
        budgets = [
            min(self.min_epochs * self.eta**i, full_epochs)
            for i in range(self.rungs - 1)
        ]
        budgets.append(full_epochs)
        ascending: list[int] = []
        for budget in budgets:
            if not ascending or budget > ascending[-1]:
                ascending.append(budget)
        return ascending

    def keep(self, n: int) -> int:
        """How many of ``n`` rung candidates are promoted (at least one)."""
        return max(1, math.ceil(n / self.eta))


# The one-rung ladder: what every collect runs when no schedule is given.
FLAT_SCHEDULE = FidelitySchedule(rungs=1)


def parse_fidelity_schedule(spec: str) -> FidelitySchedule:
    """Parse the ``eta:rungs:min-epochs`` grammar into a schedule.

    Raises :class:`~repro.utils.validation.ConfigError` on malformed specs,
    so CLI/env mistakes fail at the flag, not deep inside a campaign.
    """
    parts = [part.strip() for part in str(spec).strip().split(":")]
    if len(parts) != 3 or not all(parts):
        raise ConfigError(
            f"fidelity schedule must be 'eta:rungs:min-epochs', got {spec!r}"
        )
    try:
        eta, rungs, min_epochs = (int(part) for part in parts)
    except ValueError:
        raise ConfigError(
            f"fidelity schedule fields must be integers, got {spec!r}"
        ) from None
    return FidelitySchedule(eta=eta, rungs=rungs, min_epochs=min_epochs)


@dataclass(frozen=True)
class RungReport:
    """What one rung did: sizes, survivors, and the epoch budget it charged."""

    rung: int
    epochs: int
    candidates: int
    promoted: int
    culled: int
    epoch_budget: int  # incremental epochs charged (warm-resume accounting)


@dataclass
class FidelityResult:
    """Per-candidate ``(score, fidelity)`` pairs plus per-rung accounting.

    ``fidelities[i]`` is the epoch budget candidate ``i`` was last scored at
    — ``full_epochs`` for final-rung survivors, the cull rung's budget
    otherwise.  ``scores`` is position-aligned with the input pairs, like
    ``evaluate_pairs``.
    """

    scores: list[float]
    fidelities: list[int]
    full_epochs: int
    rungs: list[RungReport] = field(default_factory=list)

    @property
    def epochs_spent(self) -> int:
        """Total epoch budget charged across all rungs (warm accounting)."""
        return sum(report.epoch_budget for report in self.rungs)

    @property
    def epochs_saved(self) -> int:
        """Budget saved versus flat full-fidelity evaluation of every pair."""
        return max(0, self.full_epochs * len(self.scores) - self.epochs_spent)

    def label_mask(self) -> list[bool] | None:
        """Which candidates may label: those measured at full fidelity.

        ``None`` when every score is full fidelity (a flat sweep, or a
        ladder that culled nobody), which pairing treats as "all eligible".
        """
        mask = [fidelity >= self.full_epochs for fidelity in self.fidelities]
        return None if all(mask) else mask


class FidelityScheduler:
    """Executes a :class:`FidelitySchedule` through a ``ProxyEvaluator``.

    Args:
        schedule: the successive-halving ladder.
        warm_dir: directory for warm-resume snapshots; ``None`` disables
            warm continuation (every rung trains from scratch — still
            correct, just slower).  Folded into the per-rung
            :class:`~repro.tasks.proxy.ProxyConfig` as the score-inert
            ``warm_dir`` field, and only when the ladder has more than one
            rung: a flat sweep has nothing to promote, so it neither reads
            nor writes snapshots.  A ladder that completes deletes the
            snapshots of its lineages.
    """

    def __init__(
        self, schedule: FidelitySchedule, warm_dir: str | None = None
    ) -> None:
        self.schedule = schedule
        self.warm_dir = warm_dir

    def evaluate_pairs(
        self,
        evaluator,
        pairs: Sequence[tuple[ArchHyper, Task]],
        config: ProxyConfig | None = None,
        progress=None,
    ) -> FidelityResult:
        """Run the ladder over ``pairs``; order-preserving like the evaluator.

        Each rung fans through ``evaluator.evaluate_pairs`` with a
        fidelity-tagged config, so caching, checkpointed resume, retries,
        and sentinel semantics all apply per rung.  Survivors are the
        ``keep(n)`` lowest scores (stable ties by position); a candidate
        culled at rung ``r`` keeps its rung-``r`` score and fidelity tag.
        """
        config = config if config is not None else ProxyConfig()
        budgets = self.schedule.rung_epochs(config.epochs)
        if self.warm_dir is not None and config.warm_dir is None and len(budgets) > 1:
            config = replace(config, warm_dir=str(self.warm_dir))
        count = len(pairs)
        result = FidelityResult(
            scores=[0.0] * count,
            fidelities=[0] * count,
            full_epochs=config.epochs,
        )
        if count == 0:
            return result
        registry = get_registry()
        active = list(range(count))
        charged = [0] * count
        for rung_index, budget in enumerate(budgets):
            final = rung_index == len(budgets) - 1
            rung_config = replace(
                config,
                # The final rung runs as plain full fidelity — its config,
                # fingerprints, and cache keys are the flat sweep's, so
                # full-fidelity scores are shared between every schedule.
                fidelity_epochs=None if budget >= config.epochs else budget,
            )
            with span(
                "fidelity-rung",
                rung=rung_index,
                epochs=budget,
                candidates=len(active),
            ) as rung_span:
                rung_started = time.perf_counter()
                rung_scores = evaluator.evaluate_pairs(
                    [pairs[i] for i in active], rung_config, progress=progress
                )
                # Per-rung wall time quantiles (a rung is one eval sweep, so
                # queue depth shows up here as p99 >> p50).
                registry.histogram("fidelity.rung_seconds").observe(
                    time.perf_counter() - rung_started
                )
                registry.histogram(f"fidelity.rung{rung_index}.epoch_seconds").observe(
                    (time.perf_counter() - rung_started) / max(1, budget)
                )
                increment = 0
                for i, score in zip(active, rung_scores):
                    result.scores[i] = float(score)
                    result.fidelities[i] = budget
                    increment += budget - charged[i]
                    charged[i] = budget
                if final:
                    promoted = list(active)
                    culled: list[int] = []
                else:
                    # Lower score is better; ties break by position, so the
                    # rung outcome is a pure function of the scores.
                    ranked = sorted(
                        active, key=lambda i: (result.scores[i], i)
                    )
                    promoted = sorted(ranked[: self.schedule.keep(len(active))])
                    survivors = set(promoted)
                    culled = [i for i in active if i not in survivors]
                rung_span.set(
                    promoted=0 if final else len(promoted), culled=len(culled)
                )
                registry.counter("fidelity.rungs").inc()
                registry.counter("fidelity.evals").inc(len(active))
                registry.counter("fidelity.epochs_spent").inc(increment)
                if not final:
                    registry.counter("fidelity.promotions").inc(len(promoted))
                    registry.counter("fidelity.culled").inc(len(culled))
            result.rungs.append(
                RungReport(
                    rung=rung_index,
                    epochs=budget,
                    candidates=len(active),
                    promoted=0 if final else len(promoted),
                    culled=len(culled),
                    epoch_budget=increment,
                )
            )
            active = promoted
        registry.counter("fidelity.epochs_saved").inc(result.epochs_saved)
        if config.warm_dir is not None:
            # The ladder is complete, so no rung will resume these lineages;
            # an interrupted ladder never gets here and keeps them.
            store = WarmStore(config.warm_dir)
            for arch_hyper, task in pairs:
                store.discard(arch_hyper, task, config)
        return result

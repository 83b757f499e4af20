"""On-disk warm-resume snapshots for multi-fidelity proxy training.

A successive-halving campaign (see ``docs/fidelity.md``) measures a
candidate at a low epoch budget, and — if it survives the rung — again at a
higher one.  Retraining from scratch at every rung would forfeit most of the
fidelity savings, so the trainer's end-of-run snapshot (weights, optimizer
moments, RNG streams, health-monitor state) is persisted here and the next
rung *continues* the same training trajectory.  The continuation is
bitwise-identical to an uninterrupted run of the higher fidelity, which is
what keeps warm resume score-inert (``warm_dir`` is excluded from eval
fingerprints).

Snapshots are content-addressed by
:func:`~repro.runtime.fingerprint.warm_lineage_fingerprint` — the evaluation
fingerprint with the fidelity axis stripped — and stored through the PR-2
:class:`~repro.runtime.checkpoint.Checkpoint` primitive, inheriting its
atomic-write, versioning, and corruption-discard behaviour.
"""

from __future__ import annotations

from pathlib import Path

from ..space.archhyper import ArchHyper
from ..tasks.proxy import ProxyConfig
from ..tasks.task import Task
from .checkpoint import Checkpoint
from .fingerprint import CACHE_KEY_VERSION, warm_lineage_fingerprint


class WarmStore:
    """Per-lineage trainer snapshots under one directory.

    One file per training lineage, named by the lineage fingerprint; a stale
    or corrupt snapshot is silently discarded (the rung then trains fresh,
    which is always sound — just slower).
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    def _checkpoint(self, lineage: str) -> Checkpoint:
        return Checkpoint(
            self.root / f"{lineage}.warm.pkl",
            kind="warm-train",
            meta={"fingerprint": lineage, "key_version": CACHE_KEY_VERSION},
        )

    def load(
        self, arch_hyper: ArchHyper, task: Task, config: ProxyConfig
    ) -> dict | None:
        """The candidate's trainer snapshot, or ``None`` when absent/stale."""
        lineage = warm_lineage_fingerprint(arch_hyper, task, config)
        return self._checkpoint(lineage).load()

    def save(
        self,
        arch_hyper: ArchHyper,
        task: Task,
        config: ProxyConfig,
        state: dict,
    ) -> None:
        """Persist a trainer snapshot for later promotion."""
        lineage = warm_lineage_fingerprint(arch_hyper, task, config)
        self._checkpoint(lineage).save(state)

    def discard(self, arch_hyper: ArchHyper, task: Task, config: ProxyConfig) -> None:
        """Delete the candidate's snapshot once nothing will resume it."""
        lineage = warm_lineage_fingerprint(arch_hyper, task, config)
        self._checkpoint(lineage).clear()

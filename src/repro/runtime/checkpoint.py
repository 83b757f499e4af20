"""Atomic, versioned progress checkpoints for long-running pipelines.

An interrupted comparator-pretraining or search campaign must resume
*bitwise-identically*: the samples scored so far, the comparator's epoch
state (weights, optimizer moments, RNG stream), and the search generation are
all persisted so a SIGINT or crash costs at most one unit of work.

:class:`Checkpoint` is the storage primitive shared by every loop:

* **atomic** — writes go through :func:`atomic_write` (a temp file then
  ``os.replace``), so a crash can never leave a half-written checkpoint;
* **versioned** — every file embeds :data:`CHECKPOINT_FORMAT_VERSION`, a
  ``kind`` tag, and caller-supplied ``meta`` (seed, config knobs); any
  mismatch discards the file instead of resuming into a different run;
* **corruption-safe** — truncated or unreadable files are logged, deleted,
  and treated as "no checkpoint", never raised.

:class:`EvalProgress` specializes it for evaluation batches: a
content-addressed ``{fingerprint: score}`` map flushed as scores land, which
:meth:`ProxyEvaluator.evaluate_pairs` consults before touching a backend.
"""

from __future__ import annotations

import logging
import os
import pickle
from pathlib import Path

from .fingerprint import CACHE_KEY_VERSION

logger = logging.getLogger(__name__)


class ProgressVersionError(RuntimeError):
    """An :class:`EvalProgress` file was written under a different
    ``CACHE_KEY_VERSION``.

    Fingerprint semantics changed between the writer and the reader, so the
    stored ``{fingerprint: score}`` entries describe *different measurements*
    than the ones the resuming run would compute.  Refusing loudly (instead
    of silently mixing the two keyings) is the contract tested by the
    version-skew suite; delete the progress file or set a fresh checkpoint
    directory to proceed.
    """


# Bump when the checkpoint payload schema changes; old files are then
# discarded cleanly (and their runs restart) instead of crashing the loader.
CHECKPOINT_FORMAT_VERSION = 1


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and ``os.replace``.

    The one durable-write path of the runtime: a crash leaves either the old
    file or the new one, never half of one.  Failures are logged, never
    raised — every caller treats its file as a cache it can recompute.
    """
    temp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp.write_bytes(data)
        os.replace(temp, path)
    except OSError as exc:
        logger.warning("failed to write %s: %s", path, exc)
        temp.unlink(missing_ok=True)


class Checkpoint:
    """One on-disk progress file for one resumable loop.

    Args:
        path: the checkpoint file location.
        kind: a short tag naming the producing loop (``"collect"``,
            ``"pretrain"``, ``"evolution"`` …); a file of the wrong kind is
            discarded rather than resumed.
        meta: identity of the run (seed, config knobs, task names).  A
            checkpoint whose stored meta differs is stale — it belongs to a
            different configuration — and is discarded on load.
    """

    def __init__(self, path: Path | str, kind: str, meta: dict | None = None) -> None:
        self.path = Path(path)
        self.kind = kind
        self.meta = dict(meta or {})

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> dict | None:
        """The saved state, or ``None`` (discarding the file) on any mismatch."""
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            KeyError,
            TypeError,
            ValueError,
            MemoryError,
            OSError,
        ) as exc:
            self._discard(f"corrupt ({type(exc).__name__}: {exc})")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format_version") != CHECKPOINT_FORMAT_VERSION
            or payload.get("kind") != self.kind
            or not isinstance(payload.get("state"), dict)
        ):
            self._discard("wrong version, kind, or schema")
            return None
        if payload.get("meta") != self.meta:
            self._discard("stale run identity (meta mismatch)")
            return None
        return payload["state"]

    def save(self, state: dict) -> None:
        """Atomically persist ``state``; failures are logged, never raised."""
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": self.kind,
            "meta": self.meta,
            "state": state,
        }
        atomic_write(self.path, pickle.dumps(payload))

    def clear(self) -> None:
        """Remove the checkpoint file (fresh-run semantics)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass

    def _discard(self, reason: str) -> None:
        logger.warning("checkpoint: discarding %s checkpoint %s", reason, self.path)
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass


class EvalProgress:
    """Content-addressed scores-so-far of one evaluation batch.

    Because entries are keyed by the full evaluation fingerprint, a stale or
    partially relevant progress file can only ever *pre-fill correct scores*
    — resuming with it is always sound, and resumed scores are bitwise
    identical to freshly computed ones.
    """

    def __init__(self, checkpoint: Checkpoint, flush_every: int = 1) -> None:
        self.checkpoint = checkpoint
        self.flush_every = max(1, int(flush_every))
        state = checkpoint.load()
        if state is not None:
            # Entries are keyed by fingerprints whose semantics are pinned by
            # CACHE_KEY_VERSION; a file written under any other version (or
            # before versions were recorded) must refuse, not silently mix.
            stored = state.get("key_version", 0)
            if stored != CACHE_KEY_VERSION:
                raise ProgressVersionError(
                    f"eval progress {checkpoint.path} was written under cache "
                    f"key version {stored}, but this build uses "
                    f"{CACHE_KEY_VERSION}; refusing to resume (delete the "
                    "file or point REPRO_CHECKPOINT_DIR elsewhere)"
                )
        self.scores: dict[str, float] = dict(state["scores"]) if state else {}
        self._pending = 0

    def known(self, fingerprint: str) -> float | None:
        return self.scores.get(fingerprint)

    def record(self, fingerprint: str, score: float) -> None:
        """Remember one landed score, flushing per the configured cadence."""
        self.scores[fingerprint] = float(score)
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            self.checkpoint.save(
                {"scores": dict(self.scores), "key_version": CACHE_KEY_VERSION}
            )
            self._pending = 0

    def clear(self) -> None:
        self.scores.clear()
        self._pending = 0
        self.checkpoint.clear()

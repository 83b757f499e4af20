"""Content-addressed on-disk cache of proxy-evaluation scores.

One evaluation = one small JSON file under ``<dir>/<fp[:2]>/<fp>.json``,
where ``fp`` is the :func:`~repro.runtime.fingerprint.proxy_fingerprint` of
the evaluation.  Writes are atomic (temp file + ``os.replace``) so a crashed
or concurrent run can never leave a half-written entry behind; loads are
corruption-safe — any unreadable, truncated, or wrong-version entry is
discarded and treated as a miss, never raised to the caller.

Scores are stored via ``json``, whose ``repr``-based float encoding
round-trips exactly, so a cache hit is bitwise identical to the original
evaluation.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

from .checkpoint import atomic_write

logger = logging.getLogger(__name__)

# Bump when the entry schema changes; old entries are then discarded cleanly.
CACHE_FORMAT_VERSION = 1


class EvalCache:
    """Directory-backed score cache keyed by evaluation fingerprint.

    The process-wide evaluator's directory is
    :attr:`Settings.eval_cache_dir <repro.settings.Settings>`.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> float | None:
        """The cached score, or ``None`` on a miss or an unreadable entry."""
        path = self.path_for(fingerprint)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._discard(path, "unreadable")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_FORMAT_VERSION
            or not isinstance(payload.get("score"), (int, float))
        ):
            self._discard(path, "wrong version or schema")
            return None
        return float(payload["score"])

    def put(self, fingerprint: str, score: float, wall_seconds: float = 0.0) -> None:
        """Atomically persist one score; failures are logged, never raised."""
        path = self.path_for(fingerprint)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "score": float(score),
            "wall_seconds": float(wall_seconds),
            "created": time.time(),
        }
        atomic_write(path, json.dumps(payload).encode())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Remove every entry; returns the number of files deleted."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for entry in self.directory.glob("*/*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _discard(self, path: Path, reason: str) -> None:
        logger.warning("eval cache: discarding %s entry %s", reason, path)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

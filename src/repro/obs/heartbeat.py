"""Rate-limited heartbeat progress lines for long-running campaigns.

A multi-hour search emits nothing between its start banner and its final
report; a heartbeat is a one-line progress pulse (elapsed time, generation,
eval throughput, cache hit-rate) printed at most once per ``min_interval``
seconds per key.  Heartbeats are **off by default** — the library never
prints unasked — and are enabled by the CLI unless ``--quiet`` is given.

Two properties keep them safe to leave wired into hot loops:

* the first ``beat`` for a key only *arms* the timer, so short runs (tests,
  smoke scales) stay silent even with heartbeats enabled;
* the message is built lazily (``render`` is a callable), so a rate-limited
  or disabled beat costs one dict lookup and a clock read, never string
  formatting.
"""

from __future__ import annotations

import time
from typing import Callable


class Heartbeat:
    """Per-key rate limiter around a line sink (normally ``print``)."""

    def __init__(
        self,
        min_interval: float = 10.0,
        sink: Callable[[str], None] = print,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.min_interval = float(min_interval)
        self.sink = sink
        self.clock = clock
        self._last: dict[str, float] = {}

    def beat(self, key: str, render: Callable[[], str], force: bool = False) -> bool:
        """Emit ``render()`` for ``key`` if its interval elapsed; True if emitted."""
        now = self.clock()
        last = self._last.get(key)
        if last is None:
            self._last[key] = now  # arm: never print on the very first pulse
            return False
        if not force and now - last < self.min_interval:
            return False
        self._last[key] = now
        self.sink(f"[heartbeat] {render()}")
        return True


_enabled = False
_default = Heartbeat()


def configure_heartbeat(
    enabled: bool = True,
    min_interval: float | None = None,
    sink: Callable[[str], None] | None = None,
) -> None:
    """Turn the process-wide heartbeat on/off and tune interval/sink."""
    global _enabled
    _enabled = bool(enabled)
    if min_interval is not None:
        _default.min_interval = float(min_interval)
    if sink is not None:
        _default.sink = sink
    if not enabled:
        _default._last.clear()


def heartbeat(key: str, render: Callable[[], str], force: bool = False) -> bool:
    """Pulse the process-wide heartbeat; no-op (False) when disabled."""
    if not _enabled:
        return False
    return _default.beat(key, render, force=force)


def latency_summary(histogram, unit: str = "s") -> str:
    """Format a histogram's p50/p99 for a heartbeat line or dashboard cell.

    Accepts a live :class:`~repro.obs.metrics.Histogram` or its
    ``snapshot()`` dict; an instrument with no observations renders as
    ``p50=- p99=-`` so heartbeat lines stay fixed-shape.
    """
    if histogram is None:
        p50 = p99 = None
    elif isinstance(histogram, dict):
        p50, p99 = histogram.get("p50"), histogram.get("p99")
    else:
        p50, p99 = histogram.quantile(0.5), histogram.quantile(0.99)
    fmt = lambda v: "-" if v is None else f"{v:.3g}{unit}"  # noqa: E731
    return f"p50={fmt(p50)} p99={fmt(p99)}"

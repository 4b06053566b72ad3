"""Live stderr progress for matrix / cube / fuzz / population runs (``--live``).

A campaign used to run dark until it returned; the reporter repaints a
single status line as cells complete::

    cube  137/200 cells  68%  41.8 cells/s  cache 12% hit  shard 5/13  \
q-delay p50 1.4us p95 52.0us  eta 0:02

Throughput, cache hit-rate and ETA come from the run's own accounting;
the running p50/p95 queue delay comes from the queue-delay histograms
merged so far — the same mergeable-sketch substrate the final snapshot
uses, so the live numbers converge on the exported ones.  Rendering is
throttled (default 5 Hz) and goes to **stderr**, so piping a command's
stdout stays clean.  Everything here is wall-clock and cosmetic: the
reporter never influences the deterministic artifacts.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

__all__ = ["LiveReporter", "format_duration", "format_ns"]


def format_ns(value: Optional[float]) -> str:
    """Human-scale rendering of a virtual-nanosecond quantity."""
    if value is None:
        return "-"
    if value >= 1e9:
        return f"{value / 1e9:.1f}s"
    if value >= 1e6:
        return f"{value / 1e6:.1f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


def format_duration(seconds: float) -> str:
    """``m:ss`` (or ``h:mm:ss``) rendering of a wall-clock duration."""
    seconds = max(0, int(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class LiveReporter:
    """Repaints one ``\\r``-terminated status line as a run progresses.

    Driven by the ambient :class:`~repro.telemetry.run.RunTelemetry`:
    the engine calls :meth:`update` after every cell (serial) or chunk
    (parallel) completion, and the session calls :meth:`finish` once,
    which forces a final repaint and a newline.  ``now`` is injectable
    for tests.

    When the stream is **not a TTY** (CI logs, ``2>file``) the
    ``\\r``-overwrite trick would concatenate every repaint into one
    unreadable multi-kilobyte line, so the reporter detects
    ``stream.isatty()`` and falls back to newline-delimited updates
    throttled at ``noninteractive_interval`` (default one line every
    5 s instead of 5 Hz).  ``interactive`` overrides the detection.
    """

    def __init__(
        self,
        command: str,
        stream: Optional[TextIO] = None,
        interval: float = 0.2,
        now: Callable[[], float] = time.monotonic,
        interactive: Optional[bool] = None,
        noninteractive_interval: float = 5.0,
    ):
        self.command = command
        self.stream = stream if stream is not None else sys.stderr
        if interactive is None:
            try:
                interactive = bool(self.stream.isatty())
            except (AttributeError, ValueError, OSError):
                interactive = False
        self.interactive = interactive
        self.interval = interval if interactive else max(interval, noninteractive_interval)
        self.now = now
        self.started = now()
        self._last_render = 0.0
        self._last_width = 0
        self.renders = 0

    # ------------------------------------------------------------------
    def update(self, telemetry, force: bool = False) -> None:
        """Repaint if the throttle interval elapsed (or ``force``)."""
        moment = self.now()
        if not force and moment - self._last_render < self.interval:
            return
        self._last_render = moment
        self._render(telemetry, moment)

    def finish(self, telemetry) -> None:
        """Final repaint plus a newline so the shell prompt stays clean."""
        self._render(telemetry, self.now())
        if not self.interactive:
            return  # newline-delimited mode: every line already ends in \n
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    # ------------------------------------------------------------------
    def _render(self, telemetry, moment: float) -> None:
        elapsed = max(moment - self.started, 1e-9)
        engine = telemetry.engine
        done = engine["cached"] + engine["computed"]
        total = max(telemetry.total_cells, done)
        rate = done / elapsed
        parts = [
            f"{self.command}",
            f"{done}/{total} cells" + (f"  {done * 100 // total}%" if total else ""),
            f"{rate:.1f} cells/s",
        ]
        if done:
            parts.append(f"cache {engine['cached'] * 100 // done}% hit")
        if engine["errors"]:
            parts.append(f"errors {engine['errors']}")
        shards = telemetry.shards
        if shards["total"]:
            parts.append(f"shard {shards['done']}/{shards['total']}")
        quantiles = telemetry.queue_delay_quantiles()
        if quantiles:
            parts.append(
                f"q-delay p50 {format_ns(quantiles.get('p50'))} "
                f"p95 {format_ns(quantiles.get('p95'))}"
            )
        remaining = total - done
        if remaining > 0 and rate > 0:
            parts.append(f"eta {format_duration(remaining / rate)}")
        line = "  ".join(parts)
        self.renders += 1
        try:
            if self.interactive:
                padding = " " * max(self._last_width - len(line), 0)
                self._last_width = len(line)
                self.stream.write("\r" + line + padding)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

"""Implicit-clock building blocks shared by the timing attacks.

The paper's central observation: even with every explicit clock degraded,
an attacker interleaves *two or more* JavaScript functions and uses the
invocation pattern itself as a clock.  These helpers implement the three
implicit clocks Table I groups its rows by:

* :class:`TimerTickClock` — a ``setTimeout`` chain; the count of ticks
  between two program points measures the interval;
* :class:`WorkerFloodClock` — the paper's Listing 1: a worker floods
  ``postMessage`` and the main thread counts ``onmessage`` invocations;
* :class:`RafTimestampClock` — a ``requestAnimationFrame`` chain; the
  timestamp deltas measure frame (and hence paint/main-thread) timing.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class TimerTickClock:
    """Free-running setTimeout chain tick counter."""

    def __init__(self, scope, period_ms: float = 1.0):
        self.scope = scope
        self.period_ms = period_ms
        self.count = 0

    def start(self) -> None:
        """Begin ticking."""
        self._tick()

    def _tick(self) -> None:
        self.count += 1
        self.scope.setTimeout(self._tick, self.period_ms)

    def read(self) -> int:
        """Current tick count."""
        return self.count


class WorkerFloodClock:
    """Listing 1: worker postMessage flood counted via onmessage.

    The worker posts a burst of messages per timer tick, so the flood
    sustains roughly ``burst / clamped-tick`` messages per millisecond
    even under the 4 ms nested-timer clamp.
    """

    def __init__(self, scope, flood_period_ms: float = 0.2, burst: int = 4):
        self.scope = scope
        self.count = 0
        period = flood_period_ms

        def worker_main(ws) -> None:
            def tick() -> None:
                for _ in range(burst):
                    ws.postMessage(1)
                ws.setTimeout(tick, period)

            ws.setTimeout(tick, period)

        self.worker = scope.Worker(worker_main)
        self.worker.onmessage = self._on_message

    def _on_message(self, _event) -> None:
        self.count += 1

    def read(self) -> int:
        """Number of onmessage invocations so far."""
        return self.count

    def terminate(self) -> None:
        """Stop the flood."""
        self.worker.terminate()


class RafTimestampClock:
    """requestAnimationFrame chain collecting timestamps."""

    def __init__(self, scope, frames: int, on_done: Optional[Callable[[List[float]], None]] = None):
        self.scope = scope
        self.frames = frames
        self.timestamps: List[float] = []
        self.on_done = on_done
        self.per_frame_work: Optional[Callable[[int], None]] = None

    def start(self) -> None:
        """Begin the chain."""
        self.scope.requestAnimationFrame(self._frame)

    def _frame(self, timestamp: float) -> None:
        index = len(self.timestamps)
        self.timestamps.append(timestamp)
        if self.per_frame_work is not None:
            self.per_frame_work(index)
        if len(self.timestamps) < self.frames:
            self.scope.requestAnimationFrame(self._frame)
        elif self.on_done is not None:
            self.on_done(self.timestamps)

    def deltas(self) -> List[float]:
        """Consecutive timestamp differences (ms)."""
        return [
            self.timestamps[i + 1] - self.timestamps[i]
            for i in range(len(self.timestamps) - 1)
        ]

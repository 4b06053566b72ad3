"""Kernel objects: events and the kernel event queue (paper §III-C1).

A :class:`KernelEvent` is the kernel's record of one asynchronous
occurrence (a timer firing, a message arriving, a frame callback, a fetch
completing).  Its lifecycle follows the paper's two-stage scheduling:

    registered (PENDING, predicted time assigned)
        → confirmed (READY, args/this/callback bound)
        → dispatched (DISPATCHED)
    with CANCELLED reachable from PENDING/READY.

The :class:`KernelEventQueue` orders events by predicted time and supports
the paper's queue API: ``push``, ``pop``, ``top``, ``remove``.  Its heap
holds ``(predicted_time, seq, event)`` entries like every ready queue in
the runtime: ``seq`` is the queue's own push counter, which is also the
event's id, so ids are per-queue and equal predicted times dispatch in
registration order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import KernelError

# lifecycle states
PENDING = "pending"
READY = "ready"
CANCELLED = "cancelled"
DISPATCHED = "dispatched"


class KernelEvent:
    """One event in the kernel queue."""

    __slots__ = (
        "id",
        "kind",
        "predicted_time",
        "status",
        "callbacks",
        "chosen_callback",
        "args",
        "this",
        "label",
        "stub",
        "on_dispatch",
        "reg_time",
        "confirm_time",
        "trace_span",
    )

    def __init__(
        self,
        kind: str,
        predicted_time: int,
        callbacks: Optional[Dict[str, Callable]] = None,
        label: str = "",
    ):
        #: Assigned by :meth:`KernelEventQueue.push` from the queue's counter.
        self.id = 0
        self.kind = kind
        self.predicted_time = predicted_time
        self.status = PENDING
        #: All possible callbacks (e.g. {"onload": f, "onerror": g}); the
        #: confirmation stage picks one and deletes the others (§III-D1).
        self.callbacks: Dict[str, Callable] = dict(callbacks) if callbacks else {}
        self.chosen_callback: Optional[Callable] = None
        self.args: Tuple[Any, ...] = ()
        self.this: Any = None
        self.label = label or kind
        #: User-space stub value returned at registration (e.g. a promise).
        self.stub: Any = None
        #: Optional dispatcher hook run instead of the callback.
        self.on_dispatch: Optional[Callable[["KernelEvent"], None]] = None
        #: Lifecycle stamps (virtual ns) for tracing: set by the scheduler
        #: at registration / confirmation.
        self.reg_time = 0
        self.confirm_time = 0
        #: Tracer-local async-span id (0 when the capture is disabled).
        self.trace_span = 0

    # ------------------------------------------------------------------
    def confirm(
        self,
        args: Tuple[Any, ...] = (),
        this: Any = None,
        which: Optional[str] = None,
    ) -> None:
        """Confirmation stage: bind args/this, select the callback."""
        if self.status == CANCELLED:
            return
        if self.status != PENDING:
            raise KernelError(f"confirm on {self.status} event #{self.id}")
        self.args = args
        self.this = this
        if which is not None:
            if which not in self.callbacks:
                raise KernelError(f"event #{self.id} has no callback {which!r}")
            self.chosen_callback = self.callbacks[which]
            self.callbacks = {which: self.chosen_callback}
        elif self.callbacks:
            name, callback = next(iter(self.callbacks.items()))
            self.chosen_callback = callback
            self.callbacks = {name: callback}
        self.status = READY

    def cancel(self) -> None:
        """Mark the event cancelled (dispatcher will discard it)."""
        if self.status == PENDING or self.status == READY:
            self.status = CANCELLED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<KernelEvent #{self.id} {self.kind} @{self.predicted_time} "
            f"{self.status}>"
        )


class KernelEventQueue:
    """Priority queue of kernel events ordered by predicted time."""

    def __init__(self):
        self._heap: List[Tuple[int, int, KernelEvent]] = []
        self._by_id: Dict[int, KernelEvent] = {}
        #: Push counter: event ids and the tie-break among equal times.
        self._seq = 0
        self._sim = None
        self._trace_row = ""
        self._last_depth = -1

    def bind_trace(self, sim, row: str) -> None:
        """Emit depth counters onto ``row`` of ``sim``'s tracer."""
        self._sim = sim
        self._trace_row = row

    def _depth_changed(self) -> None:
        # one counter sample per net depth change; ``_by_id`` is the live
        # membership (heap entries linger until lazily pruned)
        sim = self._sim
        if sim is None or not sim.tracer.enabled:
            return
        depth = len(self._by_id)
        if depth == self._last_depth:
            return
        self._last_depth = depth
        sim.tracer.counter(
            sim.trace_pid,
            self._trace_row,
            "kernel.queue_depth",
            sim.now,
            {"depth": depth},
            cat="kernel",
        )
        sim.tracer.metrics.gauge(f"kernel.queue.depth.{self._trace_row}").set(depth)

    def push(self, event: KernelEvent) -> KernelEvent:
        """Insert an event at its predicted time and assign its id."""
        self._seq += 1
        event.id = self._seq
        heapq.heappush(self._heap, (event.predicted_time, event.id, event))
        self._by_id[event.id] = event
        self._depth_changed()
        return event

    def top(self) -> Optional[KernelEvent]:
        """Earliest non-dispatched event, kept in the queue."""
        self._prune()
        if not self._heap:
            return None
        return self._heap[0][2]

    def pop(self) -> Optional[KernelEvent]:
        """Earliest event, removed from the queue."""
        self._prune()
        if not self._heap:
            return None
        _t, _i, event = heapq.heappop(self._heap)
        self._by_id.pop(event.id, None)
        self._depth_changed()
        return event

    def remove(self, event: KernelEvent) -> None:
        """Remove an event regardless of predicted time (lazy)."""
        event.status = DISPATCHED if event.status == DISPATCHED else CANCELLED
        self._by_id.pop(event.id, None)
        self._depth_changed()

    def top_ready(self) -> Optional[KernelEvent]:
        """Earliest READY event, skipping pending heads.

        Used by pass-through (non-order-enforcing) dispatch, where an
        unconfirmed event must not hold back confirmed ones.
        """
        self._prune()
        best: Optional[KernelEvent] = None
        for _t, _i, event in self._heap:
            if event.status == READY and (
                best is None or event.predicted_time < best.predicted_time
            ):
                best = event
        return best

    def remove_by_id(self, event_id: int) -> None:
        """Drop an event from the id index (heap entry pruned lazily)."""
        self._by_id.pop(event_id, None)
        self._depth_changed()

    def _prune(self) -> None:
        while self._heap and self._heap[0][2].status in (CANCELLED, DISPATCHED):
            _t, _i, event = heapq.heappop(self._heap)
            self._by_id.pop(event.id, None)
        self._depth_changed()

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
registration order.  ``remove(event, status)`` is the one way out of the
queue: cancellation leaves with CANCELLED, dispatch (and ``pop``) with
DISPATCHED.  Removal counts the event out at once; its heap entry is
pruned when it reaches the head.
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<KernelEvent #{self.id} {self.kind} @{self.predicted_time} "
            f"{self.status}>"
        )


class KernelEventQueue:
    """Priority queue of kernel events ordered by predicted time.

    With a simulator and a trace ``row``, every change of the live depth
    is emitted as a ``kernel.queue_depth`` counter on that row.
    """

    def __init__(self, sim=None, row: str = ""):
        self._heap: List[Tuple[int, int, KernelEvent]] = []
        #: Live events: pushed and not yet removed (a removed event's heap
        #: entry lingers until it is pruned at the head).
        self._live = 0
        #: Push counter: event ids and the tie-break among equal times.
        self._seq = 0
        self._sim = sim
        self._trace_row = row
        self._last_depth = -1

    def __len__(self) -> int:
        """Live depth: events pushed and not yet removed."""
        return self._live

    def _depth_changed(self) -> None:
        # one counter sample per net depth change
        sim = self._sim
        if sim is None or not sim.tracer.enabled:
            return
        depth = self._live
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
        self._live += 1
        self._depth_changed()
        return event

    def top(self) -> Optional[KernelEvent]:
        """Earliest live event, kept in the queue."""
        heap = self._heap
        while heap and heap[0][2].status in (CANCELLED, DISPATCHED):
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def pop(self) -> Optional[KernelEvent]:
        """Earliest live event, removed from the queue as DISPATCHED."""
        event = self.top()
        if event is not None:
            self.remove(event, DISPATCHED)
        return event

    def remove(self, event: KernelEvent, status: str) -> None:
        """Take a live event out of the queue, marking it ``status``
        (CANCELLED or DISPATCHED); removing it again does nothing."""
        if event.status == CANCELLED or event.status == DISPATCHED:
            return
        event.status = status
        self._live -= 1
        self._depth_changed()

    def top_ready(self) -> Optional[KernelEvent]:
        """Earliest READY event, skipping pending heads.

        Used by pass-through (non-order-enforcing) dispatch, where an
        unconfirmed event must not hold back confirmed ones.
        """
        self.top()  # prunes removed heads
        best: Optional[KernelEvent] = None
        for _t, _i, event in self._heap:
            if event.status == READY and (
                best is None or event.predicted_time < best.predicted_time
            ):
                best = event
        return best

"""The kernel dispatcher (paper §III-D3).

"The dispatcher is essentially an event loop that keeps fetching events
from the event queue following their predicted time."

The dispatcher examines the head of the kernel queue:

* READY → invoke its callback (as one native macrotask), after *pacing*:
  an event is never dispatched before its predicted time on the real
  timeline, so events confirmed early (messages flooding in faster than
  their deterministic slots) are held back;
* PENDING → wait; the order is frozen by predicted times, so nothing
  behind the head may run first.  Confirmation will kick the dispatcher.

Cancelled events never reach the head: the queue prunes them.

Invoking an event ticks the kernel clock to the event's predicted time,
which is how the user-visible time axis stays deterministic.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.task import TaskSource
from .kobjects import DISPATCHED, PENDING, KernelEvent

#: Native cost charged per dispatched kernel event (queue + context prep).
DISPATCH_COST = 1_500


class Dispatcher:
    """Per-kernel-thread dispatch loop."""

    def __init__(self, kspace):
        self.kspace = kspace
        self.loop = kspace.loop
        # real<->kernel anchors for pacing
        self._anchor_real = self.loop.sim.now
        self._anchor_kernel = kspace.clock.now
        self._dispatch_scheduled = False
        #: Kernel invariant: under an order-enforcing policy the
        #: dispatched predicted times must be monotone non-decreasing.
        #: A violation is a kernel bug, traced as
        #: ``kernel.order-violation`` (fuzz oracle, see
        #: repro.explore.oracles).
        self._last_predicted: Optional[int] = None
        # per-kind label caches: kick() runs on every register/confirm and
        # must not build an f-string per call on the untraced path
        self._kick_labels: dict = {}
        # cached metric handles, bound on the first traced dispatch (a
        # simulator's tracer is fixed for its life)
        self._mh_dispatched: dict = {}
        self._mh_latency_hist = None

    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Re-examine the queue head (called on confirm/cancel/register)."""
        if self._dispatch_scheduled:
            return
        head = self._next_actionable()
        if head is None:
            return
        allowed_real = self._allowed_real(head)
        now = self.loop.sim.now
        delay = max(allowed_real - now, 0)
        self._dispatch_scheduled = True
        kind = head.kind
        label = self._kick_labels.get(kind)
        if label is None:
            label = self._kick_labels[kind] = f"kdispatch:{kind}"
        self.loop.post(
            self._dispatch_head,
            delay=delay,
            source=TaskSource.KERNEL,
            label=label,
        )

    def _next_actionable(self) -> Optional[KernelEvent]:
        queue = self.kspace.queue
        if not self.kspace.policy.enforces_order:
            # pass-through: confirmed events dispatch regardless of
            # pending earlier-slotted ones
            return queue.top_ready()
        head = queue.top()
        if head is None or head.status == PENDING:
            return None  # frozen order: wait for confirmation
        return head

    def _allowed_real(self, event: KernelEvent) -> int:
        if not self.kspace.policy.enforces_order:
            return 0  # pass-through: no pacing
        return self._anchor_real + (event.predicted_time - self._anchor_kernel)

    # ------------------------------------------------------------------
    def _dispatch_head(self) -> None:
        self._dispatch_scheduled = False
        head = self._next_actionable()
        if head is None:
            return
        now = self.loop.sim.now
        allowed_real = self._allowed_real(head)
        if now < allowed_real:
            self.kick()
            return
        if now > allowed_real and self.kspace.policy.enforces_order:
            # we are late (a confirmation straggled): slip the anchor so
            # relative pacing is preserved from here on
            self._anchor_real = now - (head.predicted_time - self._anchor_kernel)
        # in pass-through mode the dispatched event may not be the heap
        # head; the queue prunes its entry lazily
        self.kspace.queue.remove(head, DISPATCHED)
        self._invoke(head)
        self.kick()

    def _invoke(self, event: KernelEvent) -> None:
        sim = self.loop.sim
        sim.consume(DISPATCH_COST)
        if self.kspace.policy.enforces_order:
            if (
                self._last_predicted is not None
                and event.predicted_time < self._last_predicted
            ):
                if sim.tracer.enabled:
                    sim.tracer.instant(
                        sim.trace_pid,
                        self.kspace.scheduler.trace_row,
                        "kernel.order-violation",
                        sim.now,
                        cat="kernel",
                        args={
                            "kind": event.kind,
                            "predicted_ns": event.predicted_time,
                            "previous_ns": self._last_predicted,
                        },
                    )
                    sim.tracer.metrics.counter("kernel.order_violations").inc()
            self._last_predicted = event.predicted_time
        self.kspace.clock.tick_to(event.predicted_time)
        tracer = sim.tracer
        if tracer.enabled:
            now = sim.now
            kind = event.kind
            dispatch_latency = now - (event.confirm_time or event.reg_time)
            if event.trace_span:
                scheduler = self.kspace.scheduler
                tracer.async_event(
                    "e",
                    sim.trace_pid,
                    scheduler.trace_row,
                    scheduler.span_name(kind),
                    event.trace_span,
                    now,
                    cat="kernel-event",
                    args={
                        "predicted_ns": event.predicted_time,
                        "confirm_latency_ns": event.confirm_time - event.reg_time,
                        "dispatch_latency_ns": dispatch_latency,
                        "ctx": sim.trace_context,
                    },
                )
            if self._mh_latency_hist is None:
                self._mh_latency_hist = tracer.metrics.histogram(
                    f"kernel.dispatch_latency_ns.{self.kspace.label}"
                )
            counter = self._mh_dispatched.get(kind)
            if counter is None:
                counter = self._mh_dispatched[kind] = tracer.metrics.counter(
                    f"kernel.dispatched.{kind}"
                )
            counter.inc()
            self._mh_latency_hist.add(dispatch_latency)
        callback = event.chosen_callback
        if callback is None:
            return
        if event.this is not None:
            callback(event.this, *event.args)
        else:
            callback(*event.args)

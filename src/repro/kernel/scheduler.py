"""The kernel scheduler: two-stage event scheduling (paper §III-D).

Registration: a pending :class:`KernelEvent` is created with a *predicted*
time and pushed into the kernel queue; the kernel then registers its own
confirmation callback with the native browser API.  Confirmation: when the
browser really fires, the scheduler binds arguments / ``this`` / the
observed callback and flips the event to READY, waking the dispatcher.

Predicted-time assignment is delegated to the installed policy (that is
what makes scheduling deterministic or fuzzy) and then made **globally
monotone** — a new event is never predicted before an already-registered
one — so the dispatcher's predicted-time order is always compatible with
registration order and the queue can never deadlock behind an event that
was predicted into the past.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .kobjects import CANCELLED, DISPATCHED, PENDING, READY, KernelEvent, KernelEventQueue

#: Minimum spacing enforced between consecutively assigned predictions.
MIN_SLOT_GAP = 1_000  # 1 µs

#: The monotonicity floor never advances more than this far beyond the
#: kernel clock.  The floor exists so that arrival-observed events can
#: never be slotted — and therefore never dispatched — before an
#: already-registered completion event: otherwise a slow cross-thread
#: message flood could count arrivals against a secret-dependent
#: completion and leak.  Capping it trades determinism range for latency:
#: a 10 s setTimeout must not force every subsequent message past 10 s,
#: so completions more than the horizon in the future only push the floor
#: to the horizon.  Events farther out than this are protected only by
#: slot ordering, a residual channel DESIGN.md documents honestly.
FLOOR_HORIZON = 30 * 1_000_000  # 30 ms


class Scheduler:
    """Per-kernel-thread scheduler."""

    def __init__(self, kspace):
        self.kspace = kspace
        self.queue: KernelEventQueue = kspace.queue
        #: Last predicted time handed out for each event kind.
        self._last_slot: Dict[str, int] = {}
        #: Last predicted time handed out overall (monotonicity floor).
        self._last_assigned = 0
        #: Trace thread row shared by this kspace's scheduler + dispatcher.
        self.trace_row = f"kernel:{kspace.label}"
        # per-kind "kevent:<kind>" name cache for the traced path
        self._span_names: Dict[str, str] = {}
        # cached metric handles, bound on first traced use (a simulator's
        # tracer is fixed for its life); the confirm pair on the first
        # confirm, so a kernel that never confirms exports neither
        self._mh_registered: Dict[str, Any] = {}
        self._mh_cancelled: Dict[str, Any] = {}
        self._mh_confirmed = None
        self._mh_confirm_hist = None

    def span_name(self, kind: str) -> str:
        """The ``kevent:<kind>`` async-span name (cached per kind)."""
        name = self._span_names.get(kind)
        if name is None:
            name = self._span_names[kind] = f"kevent:{kind}"
        return name

    def _bind_metrics(self, tracer) -> None:
        """Bind the confirm counter and latency histogram to ``tracer``."""
        metrics = tracer.metrics
        self._mh_confirmed = metrics.counter("kernel.confirmed")
        self._mh_confirm_hist = metrics.histogram(
            f"kernel.confirm_latency_ns.{self.kspace.label}"
        )

    # ------------------------------------------------------------------
    # registration stage
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        callbacks: Optional[Dict[str, Callable]] = None,
        hint: Optional[int] = None,
        label: str = "",
        chain: Optional[str] = None,
    ) -> KernelEvent:
        """Create and enqueue a pending event with a predicted time.

        ``hint`` carries kind-specific information for the policy — for a
        timeout it is the requested delay in ns.  ``chain`` names the slot
        chain for spaced kinds: messages are spaced *per channel* (one
        worker's flood must not serialise another worker's traffic), so
        each channel passes its own chain id.
        """
        predicted = self.kspace.policy.predict(kind, self.kspace, hint)
        if predicted is None:
            predicted = self._default_predict(kind, hint)
        # Arrival-observed kinds (messages) RESPECT the floor — they can
        # never be slotted before an already-registered completion — but
        # must not RAISE it: during a main-thread stall a worker flood
        # keeps arriving, and letting those slots push the floor would
        # leak the stall length into the next completion's predicted time.
        #
        # Timers are the mirror image: they RAISE the floor (messages may
        # not sneak before them) but do not READ it — a timer's slot is a
        # deterministic function of the kernel clock and its delay, so an
        # abort timer may legitimately be scheduled before an in-flight
        # fetch's completion slot.  Tick chains still order correctly
        # because their slots advance with the clock and ties break by
        # registration order.
        arrival_observed = self.kspace.grid.is_spaced(kind)
        is_timer = kind in ("timeout", "interval")
        predicted = self._monotone(
            kind,
            predicted,
            update_floor=not arrival_observed,
            read_floor=not is_timer,
            chain=chain,
        )
        event = KernelEvent(kind, predicted, callbacks, label=label)
        sim = self.kspace.loop.sim
        event.reg_time = sim.now
        self.queue.push(event)
        tracer = sim.tracer
        if tracer.enabled:
            event.trace_span = tracer.next_span_id()
            tracer.async_event(
                "b",
                sim.trace_pid,
                self.trace_row,
                self.span_name(kind),
                event.trace_span,
                event.reg_time,
                cat="kernel-event",
                args={
                    "predicted_ns": predicted,
                    "label": event.label,
                    "ctx": sim.trace_context,
                },
            )
            counter = self._mh_registered.get(kind)
            if counter is None:
                counter = self._mh_registered[kind] = tracer.metrics.counter(
                    f"kernel.registered.{kind}"
                )
            counter.inc()
        return event

    def _default_predict(self, kind: str, hint: Optional[int]) -> int:
        """Fallback when no scheduling policy claims the event.

        Pass-through scheduling: predict the event at its natural *real*
        time.  This is what a kernel without the deterministic policy
        does — it interposes but does not reorder, so timing attacks that
        count events against completions still leak (the
        ``jskernel-nodet`` ablation).
        """
        base = max(self.kspace.loop.sim.now, self.kspace.clock.now)
        return base + (hint if hint is not None else self.kspace.grid.min_lead_ns)

    def _monotone(
        self,
        kind: str,
        predicted: int,
        update_floor: bool = True,
        read_floor: bool = True,
        chain: Optional[str] = None,
    ) -> int:
        key = chain or kind
        if read_floor:
            floored = max(predicted, self._last_assigned + MIN_SLOT_GAP)
        else:
            floored = max(predicted, self.kspace.clock.now + MIN_SLOT_GAP)
        if self.kspace.grid.is_spaced(kind):
            floored = max(
                floored,
                self._last_slot.get(key, 0) + self.kspace.grid.grid_for(kind),
            )
        self._last_slot[key] = floored
        if update_floor:
            capped = min(floored, self.kspace.clock.now + FLOOR_HORIZON)
            self._last_assigned = max(self._last_assigned, capped)
        # (arrival-observed events keep their slot but leave the floor
        # alone; beyond-horizon slots only push the floor to the horizon.
        # Either way some events may dispatch "out of registration order"
        # relative to later small-slot events, which is harmless when both
        # sides of that order are secret-independent — see DESIGN.md for
        # the residual-channel discussion.)
        return floored

    # ------------------------------------------------------------------
    # confirmation stage
    # ------------------------------------------------------------------
    def confirm(
        self,
        event: KernelEvent,
        args: Tuple[Any, ...] = (),
        this: Any = None,
        which: Optional[str] = None,
    ) -> None:
        """The browser fired: flip the event to READY, wake the dispatcher."""
        if event.status == CANCELLED:
            return
        event.confirm(args=args, this=this, which=which)
        sim = self.kspace.loop.sim
        event.confirm_time = sim.now
        tracer = sim.tracer
        if tracer.enabled:
            latency = event.confirm_time - event.reg_time
            if event.trace_span:
                tracer.async_event(
                    "n",
                    sim.trace_pid,
                    self.trace_row,
                    self.span_name(event.kind),
                    event.trace_span,
                    event.confirm_time,
                    cat="kernel-event",
                    args={
                        "stage": "confirm",
                        "confirm_latency_ns": latency,
                        "ctx": sim.trace_context,
                    },
                )
            if self._mh_confirmed is None:
                self._bind_metrics(tracer)
            self._mh_confirmed.inc()
            self._mh_confirm_hist.add(latency)
        self.kspace.dispatcher.kick()

    def register_confirmed(
        self,
        kind: str,
        callback: Callable,
        args: Tuple[Any, ...] = (),
        hint: Optional[int] = None,
        label: str = "",
        chain: Optional[str] = None,
    ) -> KernelEvent:
        """Register + immediately confirm (events observed only on arrival,
        e.g. inbound messages)."""
        event = self.register(kind, {"default": callback}, hint=hint, label=label, chain=chain)
        self.confirm(event, args=args)
        return event

    # ------------------------------------------------------------------
    # cancellation (paper §III-D2: three cases)
    # ------------------------------------------------------------------
    def cancel(self, event: KernelEvent) -> str:
        """Cancel an event; returns which of the paper's cases applied."""
        if event.status == PENDING:
            case = "not-happened"
        elif event.status == READY:
            case = "confirmed-not-invoked"
        elif event.status == DISPATCHED:
            return "already-invoked"
        else:
            return "already-cancelled"
        self.queue.remove(event, CANCELLED)
        self._trace_cancel(event, case)
        # a cancelled head may have been blocking confirmed events
        self.kspace.dispatcher.kick()
        return case

    def _trace_cancel(self, event: KernelEvent, case: str) -> None:
        sim = self.kspace.loop.sim
        tracer = sim.tracer
        if not tracer.enabled:
            return
        if event.trace_span:
            tracer.async_event(
                "e",
                sim.trace_pid,
                self.trace_row,
                self.span_name(event.kind),
                event.trace_span,
                sim.now,
                cat="kernel-event",
                args={"cancelled": case, "ctx": sim.trace_context},
            )
        counter = self._mh_cancelled.get(case)
        if counter is None:
            counter = self._mh_cancelled[case] = tracer.metrics.counter(
                f"kernel.cancelled.{case}"
            )
        counter.inc()

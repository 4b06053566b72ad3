"""Discrete-event simulation core.

The :class:`Simulator` owns virtual time (integer nanoseconds, see
:mod:`repro.runtime.simtime`) and a priority queue of timed callbacks.  Every
other runtime component — event loops, timers, the network, the renderer —
drives itself by scheduling callbacks here.

Execution frames
----------------

JavaScript tasks run *for a duration*: a callback that busy-loops for 3 ms
occupies its thread for 3 ms of virtual time, during which
``performance.now()`` advances and cross-thread messages pile up unprocessed.
We model this with :class:`ExecutionFrame`: while a task's Python callable is
running, the frame accumulates ``elapsed`` cost (every simulated operation
calls :meth:`ExecutionFrame.consume`), and :attr:`Simulator.now` reports the
*local* time ``start + elapsed``.  When the callable returns, the owning
event loop marks its thread busy until that local time, so subsequent tasks
queue behind it exactly as in a real event loop.

Cross-thread side effects performed mid-task (posting a message, starting a
network request) are stamped with the local time, which keeps the global
event order causally consistent even though Python executes the overlapping
tasks sequentially.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError
from ..trace import current_tracer

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel upper bound for ``run(until=None)``: one comparison against
#: +inf per dispatch is cheaper than re-testing ``until is not None``.
_NO_BOUND = float("inf")

#: Environment variable overriding the default runaway-loop backstop.
MAX_EVENTS_ENV = "REPRO_MAX_EVENTS"

#: Built-in runaway-experiment backstop (events per :meth:`Simulator.run` call).
DEFAULT_MAX_EVENTS = 50_000_000

#: How many recently dispatched labels a SimulationError reports.
RECENT_LABEL_WINDOW = 20


def default_max_events() -> int:
    """The effective ``max_events`` backstop: ``$REPRO_MAX_EVENTS`` or the
    built-in default.

    Fuzz campaigns lower this (a perturbed schedule can loop where the
    nominal one terminates) so a runaway run fails fast with context
    instead of spinning through fifty million events.
    """
    raw = os.environ.get(MAX_EVENTS_ENV, "")
    if not raw:
        return DEFAULT_MAX_EVENTS
    try:
        value = int(raw)
    except ValueError:
        raise SimulationError(
            f"{MAX_EVENTS_ENV} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise SimulationError(f"{MAX_EVENTS_ENV} must be positive, got {value}")
    return value


#: The ambient schedule perturber (see :func:`perturbation`); ``None``
#: outside an exploration run.  Mirrors the tracer's capture pattern:
#: simulators snapshot it at construction time.
_active_perturber = None


def current_perturber():
    """The ambient schedule perturber, or ``None``."""
    return _active_perturber


@contextmanager
def perturbation(perturber):
    """Install ``perturber`` for every simulator built inside the block.

    The perturber sees every :meth:`Simulator.schedule` call (and, through
    the event loops, every posted task) and may push events later in
    virtual time — the schedule-space exploration hook used by
    :mod:`repro.explore`.  Nesting restores the previous perturber on
    exit.
    """
    global _active_perturber
    previous = _active_perturber
    _active_perturber = perturber
    try:
        yield perturber
    finally:
        _active_perturber = previous


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    ``sim`` back-references the owning simulator while the call sits in
    its ready queue — cancellation decrements the simulator's live-event
    count in O(1) — and is cleared on dispatch so a late ``cancel()``
    cannot double-count.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "label", "sim")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[[], None],
        label: str,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.label = label
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._live -= 1
            self.sim = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall {self.label!r} at {self.time} ({state})>"


class ExecutionFrame:
    """Cost accounting for one running task.

    ``start`` is the virtual time at which the task began executing;
    ``elapsed`` is the simulated CPU time consumed so far by the task's
    synchronous code.
    """

    __slots__ = ("start", "elapsed", "thread_name")

    def __init__(self, start: int, thread_name: str):
        self.start = start
        self.elapsed = 0
        self.thread_name = thread_name

    @property
    def local_now(self) -> int:
        """The thread-local current time inside this task."""
        return self.start + self.elapsed

    def consume(self, cost_ns: int) -> None:
        """Account ``cost_ns`` of synchronous CPU work to this task."""
        if cost_ns < 0:
            raise SimulationError(f"negative cost: {cost_ns}")
        self.elapsed += cost_ns


class Simulator:
    """The global discrete-event scheduler.

    Only one task's Python code runs at a time; virtual-time overlap between
    threads is reconstructed from frame accounting (see module docstring).
    """

    def __init__(self):
        self._time = 0
        # The ready queue: one heap of (time, seq, call) entries.  seq
        # strictly increases, so equal-time calls dispatch in schedule
        # order.
        self._heap: List[Tuple[int, int, ScheduledCall]] = []
        self._seq = 0
        #: Scheduled, non-cancelled events — maintained on schedule/
        #: cancel/dispatch so ``pending_events`` is O(1).
        self._live = 0
        self._frames: List[ExecutionFrame] = []
        self.events_processed = 0
        # per-run deterministic id streams for objects (DOM nodes,
        # shared buffers, workers, kthreads...) — process-global counters
        # would break the byte-identical-capture guarantee
        self._object_seqs: Dict[str, Callable[[], int]] = {}
        # label/ordinal of the scheduled call currently dispatching, for
        # attributing frameless (native) work in traces
        self._dispatch_label = "init"
        self._dispatch_ordinal = 0
        #: The active capture's tracer (the shared disabled one outside a
        #: capture); every runtime/kernel component reaches it through its
        #: simulator.  ``trace_pid`` is this run's Chrome-trace process id.
        self.tracer = current_tracer()
        self.trace_pid = self.tracer.register_run() if self.tracer.enabled else 0
        #: The ambient schedule perturber (``None`` outside an exploration
        #: run); consulted on every schedule() and every posted task.
        self.perturber = current_perturber()
        #: Labels of the most recently dispatched events, newest last —
        #: context for runaway-loop errors.
        self._recent_labels: deque = deque(maxlen=RECENT_LABEL_WINDOW)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time.

        Inside a running task this is the task-local time (start + consumed
        cost); between tasks it is the time of the event being dispatched.
        """
        if self._frames:
            return self._frames[-1].local_now
        return self._time

    @property
    def dispatch_time(self) -> int:
        """Time of the most recent event pop (ignores frame progress)."""
        return self._time

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def push_frame(self, frame: ExecutionFrame) -> None:
        """Enter a task execution frame (event loops call this)."""
        self._frames.append(frame)

    def pop_frame(self) -> ExecutionFrame:
        """Leave the current task execution frame."""
        if not self._frames:
            raise SimulationError("pop_frame with no active frame")
        return self._frames.pop()

    @property
    def current_frame(self) -> Optional[ExecutionFrame]:
        """The innermost active execution frame, if any."""
        return self._frames[-1] if self._frames else None

    def consume(self, cost_ns: int) -> None:
        """Account synchronous cost to the current frame (no-op outside)."""
        if self._frames:
            self._frames[-1].consume(cost_ns)

    @property
    def native_context(self) -> str:
        """Trace context for work running outside any execution frame.

        Each simulator dispatch gets a distinct ``native:<label>#<n>``
        context (``n`` is the dispatch ordinal, deterministic per run), so
        two frameless callbacks are never presented as sequenced on one
        pseudo-thread when they are in fact causally unrelated.
        """
        return f"native:{self._dispatch_label}#{self._dispatch_ordinal}"

    @property
    def trace_context(self) -> str:
        """The thread to attribute current work to in trace events:
        the running frame's thread, or the native pseudo-thread."""
        if self._frames:
            return self._frames[-1].thread_name
        return self.native_context

    def object_seq_stream(self, prefix: str) -> Callable[[], int]:
        """The per-run ``prefix`` id stream: each call returns its next id
        (1-based, deterministic).  A hot caller binds it once."""
        stream = self._object_seqs.get(prefix)
        if stream is None:
            stream = self._object_seqs[prefix] = itertools.count(1).__next__
        return stream

    def next_object_seq(self, prefix: str) -> int:
        """Next id in the per-run ``prefix`` stream (1-based, deterministic)."""
        return self.object_seq_stream(prefix)()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, at: int, fn: Callable[[], None], label: str = "") -> ScheduledCall:
        """Schedule ``fn`` to run at absolute virtual time ``at``.

        ``at`` may not be in the past relative to the *dispatch* clock; it
        may be earlier than the current frame's local time (a message sent
        late in a long task still has a send-time stamp inside the task).
        """
        if at < self._time:
            raise SimulationError(
                f"cannot schedule at {at} before dispatch time {self._time}"
            )
        perturber = self.perturber
        if perturber is not None:
            # exploration hook: perturbations may only *delay* events —
            # moving one earlier could violate causality (a message
            # delivered before it was sent), which would explore schedules
            # the real platform can never produce
            at = max(perturber.perturb(self, at, label), at)
        seq = self._seq + 1
        self._seq = seq
        call = ScheduledCall(at, seq, fn, label, self)
        _heappush(self._heap, (at, seq, call))
        self._live += 1
        return call

    def schedule_after(self, delay: int, fn: Callable[[], None], label: str = "") -> ScheduledCall:
        """Schedule ``fn`` after ``delay`` ns of *local* time."""
        return self.schedule(self.now + delay, fn, label)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single earliest pending event.

        Returns ``False`` when no events remain.
        """
        if not self._live:
            return False
        n = self.events_processed
        self.run(stop=lambda: self.events_processed > n)
        return True

    def recent_dispatch_context(self) -> str:
        """The last ~20 dispatched labels, oldest first (error context)."""
        if not self._recent_labels:
            return "(nothing dispatched yet)"
        return " -> ".join(self._recent_labels)

    def run(
        self,
        until: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Dispatch events in order until one of three conditions holds.

        * ``stop()`` is true: it is checked before each dispatch, and the
          clock stays at the last dispatch.
        * The next live event lies past ``until``: no event later than
          ``until`` is dispatched, and the clock advances to ``until``.
        * No live event is left: with a ``stop`` that is still false the
          awaited condition can never occur, so :class:`DeadlockError` is
          raised (``until`` or not); without ``stop`` the clock advances
          to ``until``.

        The clock never moves backwards: an ``until`` below the current
        dispatch time dispatches nothing and leaves the clock where it is.

        ``max_events`` is a runaway-experiment backstop (default:
        ``$REPRO_MAX_EVENTS`` or :data:`DEFAULT_MAX_EVENTS`); hitting it
        raises :class:`SimulationError` — with the recently dispatched
        task labels for context — rather than spinning forever.
        """
        limit = default_max_events() if max_events is None else max_events
        bound = _NO_BOUND if until is None else until
        # the one dispatch loop: everything reachable per dispatch is
        # bound to a local once
        heap = self._heap
        heappop = _heappop
        recent_append = self._recent_labels.append
        processed = 0
        while True:
            if stop is not None and stop():
                return
            if not self._live:
                if stop is not None:
                    raise DeadlockError(
                        "event queue drained before the awaited condition became true"
                    )
                break
            # the bound is checked against the head entry, cancelled or not
            if heap[0][0] > bound:
                break
            call = heappop(heap)[2]
            if call.cancelled:
                continue
            self._time = call.time
            self._live -= 1
            call.sim = None
            n = self.events_processed + 1
            self.events_processed = n
            label = call.label or "call"
            self._dispatch_label = label
            self._dispatch_ordinal = n
            recent_append(label)
            call.fn()
            processed += 1
            if processed > limit:
                raise SimulationError(
                    f"simulation exceeded {limit} events (runaway loop?); "
                    f"last dispatched: {self.recent_dispatch_context()}"
                )
        if until is not None and until > self._time:
            self._time = until

    def run_until(
        self, predicate: Callable[[], bool], max_events: Optional[int] = None
    ) -> None:
        """``run(stop=predicate)``: raises :class:`DeadlockError` if the
        queue drains before ``predicate()`` becomes true."""
        self.run(stop=predicate, max_events=max_events)

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events (O(1): the count is
        maintained on schedule/cancel/dispatch, never by scanning)."""
        return self._live

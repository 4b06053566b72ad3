"""Per-thread event loop with busy-time accounting.

Each JavaScript thread (the main thread and every worker) owns one
:class:`EventLoop`.  The loop holds a macrotask queue ordered by ready time
and a microtask queue drained after each macrotask, mirroring the HTML event
loop processing model closely enough for the paper's purposes: ordering,
queueing delays and interleaving are exact in virtual time.

Busy-time model
---------------

When the loop dispatches a task it opens an :class:`ExecutionFrame` on the
simulator, charges the task's fixed cost plus the loop's per-task dispatch
cost, runs the Python callback (which may consume more cost), drains
microtasks in the same frame, and finally marks the thread busy until the
frame's local end time.  A task whose ready time falls inside another task's
busy window is dispatched when the thread frees up — exactly the queueing
behaviour implicit clocks measure.

Ready queue
-----------

The macrotask queue is one heap of ``(ready_time, id, task)`` entries.
The loop keeps at most one simulator wakeup armed, at the time its head
task becomes runnable; each wake runs one task and re-arms.  The dispatch
path builds no strings when the tracer is disabled and reuses cached
metric handles when it is enabled (see DESIGN.md §12).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError
from ..trace import QUEUE_DELAY_BUCKETS_NS
from .simulator import ExecutionFrame, ScheduledCall, Simulator
from .task import Microtask, Task, TaskRecord, TaskSource

_heappush = heapq.heappush
_heappop = heapq.heappop

class EventLoop:
    """One thread's macrotask + microtask queues, driven by the simulator."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        task_dispatch_cost: int = 2_000,
        record_trace: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.task_dispatch_cost = task_dispatch_cost
        self._queue: List[Tuple[int, int, Task]] = []
        # deque: the checkpoint pops from the left, and list.pop(0) is
        # O(n) — quadratic over a promise-heavy task's microtask chain
        self._microtasks: Deque[Microtask] = deque()
        self.busy_until = 0
        self.stopped = False
        self._wakeup: Optional[ScheduledCall] = None
        self._in_task = False
        self.tasks_run = 0
        self.record_trace = record_trace
        self.trace: List[TaskRecord] = []
        #: Observers called as fn(task, start, end) after each dispatch.
        self.task_observers: List[Callable[[Task, int, int], None]] = []
        # the wakeup label is per-loop constant: building it per _arm()
        # would allocate a string for every posted task
        self._wake_label = f"{name}:wake"
        # cached metric handles, rebound when the capture's tracer changes
        # (Tracer.attach can swap sim.tracer after construction)
        self._mh_tracer = None
        self._mh_task_counters: dict = {}
        self._mh_delay_hist = None
        self._mh_micro_counter = None

    # ------------------------------------------------------------------
    # posting work
    # ------------------------------------------------------------------
    def post_task(self, task: Task) -> Task:
        """Enqueue a macrotask; it runs no earlier than ``task.ready_time``."""
        if self.stopped:
            return task  # terminated workers silently drop new work
        task.enqueue_time = self.sim.now
        perturber = self.sim.perturber
        if perturber is not None:
            # schedule-space exploration hook: a perturbation may delay a
            # task's ready time (never advance it), reordering it against
            # tasks from other sources — see repro.explore.perturb
            task.ready_time = max(
                perturber.perturb(self.sim, task.ready_time, task.label or task.source.value),
                task.ready_time,
            )
        ready = task.ready_time
        if ready < self.sim.dispatch_time:
            ready = task.ready_time = self.sim.dispatch_time
        _heappush(self._queue, (ready, task.id, task))
        self._arm()
        return task

    def post(
        self,
        callback: Callable[..., None],
        *args,
        delay: int = 0,
        source: TaskSource = TaskSource.SCRIPT,
        cost: int = 0,
        label: str = "",
    ) -> Task:
        """Convenience wrapper building and posting a :class:`Task`."""
        task = Task(
            callback,
            args,
            source=source,
            ready_time=self.sim.now + delay,
            cost=cost,
            label=label,
        )
        return self.post_task(task)

    def post_microtask(self, micro: Microtask) -> None:
        """Enqueue a microtask.

        If the loop is mid-task the microtask runs at the current task's
        microtask checkpoint; otherwise a carrier macrotask is created so
        the microtask still runs asynchronously (matches queueMicrotask
        semantics from non-task contexts).
        """
        if self.stopped:
            return
        self._microtasks.append(micro)
        if not self._in_task:
            self.post(
                lambda: None,
                source=TaskSource.SCRIPT,
                label="microtask-checkpoint",
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Terminate the loop: drop all queued work, refuse new work."""
        self.stopped = True
        self._queue.clear()
        self._microtasks.clear()
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None

    @property
    def pending_tasks(self) -> int:
        """Number of queued, non-cancelled macrotasks."""
        return sum(1 for _r, _i, t in self._queue if not t.cancelled)

    @property
    def idle(self) -> bool:
        """True when nothing is queued and no task is executing."""
        return not self._in_task and self.pending_tasks == 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _next_task_time(self) -> Optional[int]:
        """When the head task can run (pruning cancelled heads), or ``None``."""
        heap = self._queue
        while heap and heap[0][2].cancelled:
            _heappop(heap)
        if not heap:
            return None
        ready = heap[0][0]
        busy = self.busy_until
        if ready < busy:
            ready = busy
        dispatch = self.sim.dispatch_time
        return ready if ready >= dispatch else dispatch

    def _arm(self) -> None:
        """(Re)schedule the simulator wakeup for the next runnable task."""
        if self.stopped or self._in_task:
            return
        run_at = self._next_task_time()
        if run_at is None:
            return
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.cancelled:
            if wakeup.time <= run_at:
                return
            wakeup.cancel()
        self._wakeup = self.sim.schedule(run_at, self._wake, label=self._wake_label)

    def _wake(self) -> None:
        self._wakeup = None
        if self.stopped:
            return
        run_at = self._next_task_time()
        if run_at is None:
            return
        if run_at > self.sim.dispatch_time:
            self._arm()
            return
        self._run_task(_heappop(self._queue)[2])
        self._arm()

    def _bind_metrics(self, tracer) -> None:
        """(Re)bind cached metric handles to ``tracer``'s registry."""
        self._mh_tracer = tracer
        self._mh_task_counters = {}
        metrics = tracer.metrics
        self._mh_delay_hist = metrics.histogram(
            f"eventloop.queue_delay_ns.{self.name}", QUEUE_DELAY_BUCKETS_NS
        )
        self._mh_micro_counter = metrics.counter(f"eventloop.microtasks.{self.name}")

    def _run_task(self, task: Task) -> None:
        sim = self.sim
        dispatch_time = sim._time
        busy = self.busy_until
        start = dispatch_time if dispatch_time > busy else busy
        if task.ready_time > start:
            start = task.ready_time
        frame = ExecutionFrame(start, self.name)
        frames = sim._frames
        frames.append(frame)
        self._in_task = True
        try:
            frame.consume(self.task_dispatch_cost + task.cost)
            task.callback(*task.args)
            if self._microtasks:
                self._drain_microtasks(frame)
        finally:
            self._in_task = False
            frames.pop()
        end = frame.start + frame.elapsed
        if end > self.busy_until:
            self.busy_until = end
        self.tasks_run += 1
        if self.record_trace:
            self.trace.append(TaskRecord(task.id, task.label, task.source, start, end))
        tracer = sim.tracer
        if tracer.enabled:
            queue_delay = start - task.ready_time
            if queue_delay < 0:
                queue_delay = 0
            source = task.source
            tracer.complete(
                sim.trace_pid,
                self.name,
                task.label,
                start,
                end,
                cat="task",
                args={"source": source.value, "queue_delay_ns": queue_delay},
            )
            if tracer is not self._mh_tracer:
                self._bind_metrics(tracer)
            counter = self._mh_task_counters.get(source)
            if counter is None:
                counter = self._mh_task_counters[source] = tracer.metrics.counter(
                    f"eventloop.tasks.{source.value}"
                )
            counter.inc()
            self._mh_delay_hist.record(queue_delay)
        observers = self.task_observers
        if observers:
            for observer in list(observers):
                observer(task, start, end)

    def _drain_microtasks(self, frame: ExecutionFrame) -> None:
        """Run the microtask checkpoint (bounded to catch runaway chains)."""
        budget = 100_000
        drained = 0
        micros = self._microtasks
        popleft = micros.popleft
        consume = frame.consume
        while micros:
            micro = popleft()
            consume(micro.cost)
            micro.callback(*micro.args)
            drained += 1
            budget -= 1
            if budget <= 0:
                raise SimulationError(
                    f"microtask checkpoint on {self.name!r} exceeded 100000 "
                    "microtasks (runaway promise chain?)"
                )
        if drained:
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.instant(
                    self.sim.trace_pid,
                    self.name,
                    "microtask-checkpoint",
                    frame.local_now,
                    cat="task",
                    args={"count": drained},
                )
                if tracer is not self._mh_tracer:
                    self._bind_metrics(tracer)
                self._mh_micro_counter.inc(drained)

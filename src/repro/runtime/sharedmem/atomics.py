"""Atomics over shared cells: load/store/add/compareExchange/wait/notify.

Every operation is a single, indivisible access in virtual time (one
:meth:`SharedHeap.access` call inside one execution frame), which is what
makes the ops linearizable at their access points — the property the
sequential-reference hypothesis test pins.

Two pieces live here because the flat SAB counter shares them:

* :class:`RateActivity` — the declared increments-at-rate-``r`` interval;
* :class:`AtomicCounterCore` — the static-value/rate-activity state
  machine behind both :class:`AtomicCell` spin counters and
  :class:`~repro.runtime.sharedbuf.SharedCounterBuffer`.  Pure math:
  no tracing, no cost accounting.

Both counters read the same way: one access through
:meth:`SharedHeap.access`, which lets the policy of the agent performing
the read interpose, then :meth:`AccessPolicy.counter_value` on the raw
value.  A defense therefore covers the flat SAB counter and the atomic
spin counter with one policy.

Wait semantics
--------------

``Atomics.wait`` cannot block a run-to-completion simulated thread, so it
is continuation-passing: the caller provides ``on_wake`` and the cell
posts it back to the waiting agent's loop when a ``notify`` (or the
timeout) fires.  Each notify emits an ``atomics.notify`` instant carrying
a fresh flow id; every wake it causes re-emits that id, which is how the
happens-before builder gets its wait→notify edges (see
``repro.analysis.hbgraph``).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ...errors import SimulationError
from ..simtime import MS
from ..task import TaskSource

#: Cost of one atomic element access (matches the flat SAB counter).
ELEMENT_ACCESS_COST = 40


class RateActivity:
    """A declared increments-at-rate-r interval on a shared counter."""

    __slots__ = ("start", "end", "rate_per_ms", "base")

    def __init__(self, start: int, rate_per_ms: float, base: int):
        self.start = start
        self.end: Optional[int] = None
        self.rate_per_ms = rate_per_ms
        self.base = base

    def value_at(self, now: int) -> int:
        """Counter value contributed by this activity at time ``now``."""
        effective_end = now if self.end is None else min(now, self.end)
        if effective_end <= self.start:
            return self.base
        elapsed_ms = (effective_end - self.start) / MS
        return self.base + int(elapsed_ms * self.rate_per_ms)


class AtomicCounterCore:
    """Static value + optional rate activity: the counter state machine."""

    __slots__ = ("static_value", "activity", "history")

    def __init__(self, value: int = 0):
        self.static_value = value
        self.activity: Optional[RateActivity] = None
        self.history: List[RateActivity] = []

    def value_at(self, now: int) -> int:
        """The counter value observed at virtual time ``now``."""
        if self.activity is not None:
            return self.activity.value_at(now)
        return self.static_value

    def start_rate(self, now: int, rate_per_ms: float) -> None:
        """Begin a tight increment loop (caller stops any prior one)."""
        self.activity = RateActivity(now, rate_per_ms, self.value_at(now))

    def stop_rate(self, now: int) -> None:
        """Freeze the counter at its current value."""
        activity = self.activity
        if activity is None:
            return
        activity.end = now
        self.static_value = activity.value_at(now)
        self.history.append(activity)
        self.activity = None

    def set_value(self, value: int) -> None:
        """Overwrite the static value (callers stop the activity first)."""
        self.static_value = value


class _Waiter:
    """One parked Atomics.wait continuation."""

    __slots__ = ("thread", "loop", "callback", "timer", "woken")

    def __init__(self, thread: str, loop, callback: Callable[[str], None]):
        self.thread = thread
        self.loop = loop
        self.callback = callback
        self.timer = None
        self.woken = False


class AtomicCell:
    """One shared integer cell with Atomics-style operations."""

    def __init__(self, heap, label: str = "atomic"):
        self.heap = heap
        self.cell = heap.alloc_cell("shm-atomic", label, payload=None)
        self.core = AtomicCounterCore(0)
        self._waiters: List[_Waiter] = []

    # ------------------------------------------------------------------
    # plain atomics
    # ------------------------------------------------------------------
    def load(self) -> int:
        """``Atomics.load``: policy-interposed shared read."""
        policy = self.heap.access(self.cell, "read", "load")
        raw = self.core.value_at(self.heap.sim.now)
        if policy is not None:
            return policy.counter_value(self.cell, self.core, raw)
        return raw

    def store(self, value: int) -> int:
        """``Atomics.store``: stops any spin loop, sets the value."""
        self.heap.access(self.cell, "write", "store")
        self.core.stop_rate(self.heap.sim.now)
        self.core.set_value(value)
        return value

    def add(self, delta: int) -> int:
        """``Atomics.add``: returns the OLD value (spec semantics)."""
        self.heap.access(self.cell, "write", "add")
        now = self.heap.sim.now
        old = self.core.value_at(now)
        self.core.stop_rate(now)
        self.core.set_value(old + delta)
        return old

    def compare_exchange(self, expected: int, replacement: int) -> int:
        """``Atomics.compareExchange``: returns the OLD value."""
        self.heap.access(self.cell, "write", "compareExchange")
        now = self.heap.sim.now
        old = self.core.value_at(now)
        if old == expected:
            self.core.stop_rate(now)
            self.core.set_value(replacement)
        return old

    # ------------------------------------------------------------------
    # spin loop (the counter-thread timer substrate)
    # ------------------------------------------------------------------
    def start_spin(self, rate_per_ms: float) -> None:
        """Declare a tight increment loop at ``rate_per_ms`` (writer side)."""
        self.heap.access(self.cell, "write", "spin_start")
        now = self.heap.sim.now
        self.core.stop_rate(now)
        self.core.start_rate(now, rate_per_ms)

    def stop_spin(self) -> None:
        """End the increment loop, freezing the counter."""
        if self.core.activity is None:
            return
        self.heap.access(self.cell, "write", "spin_stop")
        self.core.stop_rate(self.heap.sim.now)

    @property
    def spinning(self) -> bool:
        """True while a rate activity is running."""
        return self.core.activity is not None

    # ------------------------------------------------------------------
    # wait / notify
    # ------------------------------------------------------------------
    def wait(
        self,
        expected: int,
        on_wake: Callable[[str], None],
        timeout_ns: Optional[int] = None,
    ) -> str:
        """``Atomics.wait`` with virtual-time semantics.

        Returns ``"not-equal"`` immediately when the value differs from
        ``expected``; otherwise parks ``on_wake`` and returns
        ``"waiting"``.  ``on_wake`` later receives ``"ok"`` (notified) or
        ``"timed-out"``.
        """
        heap = self.heap
        heap.access(self.cell, "read", "wait")
        if self.core.value_at(heap.sim.now) != expected:
            return "not-equal"
        binding = heap.binding_for_current()
        if binding is None:
            raise SimulationError(
                "Atomics.wait outside an attached agent (no event loop to wake)"
            )
        waiter = _Waiter(binding.thread, binding.loop, on_wake)
        self._waiters.append(waiter)
        heap.sync_event("atomics.wait", self.cell.obj_id)
        if timeout_ns is not None:
            waiter.timer = binding.loop.post(
                self._wake_timeout,
                waiter,
                delay=timeout_ns,
                source=TaskSource.TIMER,
                label="atomics:wait-timeout",
            )
        return "waiting"

    def notify(self, count: int = 1) -> int:
        """``Atomics.notify``: wake up to ``count`` waiters (FIFO)."""
        heap = self.heap
        heap.access(self.cell, "write", "notify")
        woken = 0
        flow = 0
        tracer = heap.sim.tracer
        to_wake: List[_Waiter] = []
        while self._waiters and woken < count:
            waiter = self._waiters.pop(0)
            waiter.woken = True
            if waiter.timer is not None:
                waiter.timer.cancel()
            to_wake.append(waiter)
            woken += 1
        if tracer.enabled:
            if to_wake:
                flow = tracer.next_flow_id()
            heap.sync_event(
                "atomics.notify", self.cell.obj_id, {"woken": woken, "flow": flow}
            )
        for waiter in to_wake:
            waiter.loop.post(
                self._wake,
                waiter,
                "ok",
                flow,
                source=TaskSource.MESSAGE,
                label="atomics:wake",
            )
        return woken

    def _wake(self, waiter: _Waiter, reason: str, flow: int) -> None:
        args = {"reason": reason}
        if flow:
            args["flow"] = flow
        self.heap.sync_event("atomics.wake", self.cell.obj_id, args)
        waiter.callback(reason)

    def _wake_timeout(self, waiter: _Waiter) -> None:
        if waiter.woken:
            return
        waiter.woken = True
        if waiter in self._waiters:
            self._waiters.remove(waiter)
        self._wake(waiter, "timed-out", 0)

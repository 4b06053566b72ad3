"""O(1) live-event bookkeeping and the zero-alloc dispatch invariant.

Maintained counters (``Simulator.pending_events``,
``KernelEventQueue.__len__`` / ``pending_count``) replace heap scans.
These tests pin the counters across every transition —
schedule/cancel/dispatch, push/confirm/cancel/pop/remove — and the
same-time dispatch contract of the event loop: order, one simulator
event per task, per-event ``run_until`` granularity and the runaway
backstop.
"""

import gc
import sys

import pytest

from repro.errors import SimulationError
from repro.kernel.kobjects import KernelEvent, KernelEventQueue
from repro.runtime.eventloop import EventLoop
from repro.runtime.simulator import Simulator
from repro.runtime.task import TaskSource


def _noop():
    pass


# ----------------------------------------------------------------------
# Simulator.pending_events
# ----------------------------------------------------------------------

class TestSimulatorPendingEvents:
    def test_schedule_increments(self):
        sim = Simulator()
        assert sim.pending_events == 0
        calls = [sim.schedule(i * 10, _noop) for i in range(5)]
        assert sim.pending_events == 5
        assert all(not c.cancelled for c in calls)

    def test_out_of_order_schedules_counted(self):
        sim = Simulator()
        sim.schedule(100, _noop)
        sim.schedule(50, _noop)
        sim.schedule(200, _noop)
        assert sim.pending_events == 3

    def test_cancel_decrements_once(self):
        sim = Simulator()
        call = sim.schedule(10, _noop)
        sim.schedule(20, _noop)
        call.cancel()
        assert sim.pending_events == 1
        call.cancel()  # idempotent: must not double-decrement
        assert sim.pending_events == 1

    def test_dispatch_decrements(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i * 10, _noop)
        sim.step()
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_dispatch_is_noop(self):
        sim = Simulator()
        call = sim.schedule(0, _noop)
        sim.schedule(10, _noop)
        sim.run(until=5)
        assert sim.pending_events == 1
        call.cancel()  # already dispatched; must not touch the count
        assert sim.pending_events == 1

    def test_interleaved_schedule_cancel_dispatch(self):
        sim = Simulator()
        survivors = []

        def spawn():
            keep = sim.schedule(sim.dispatch_time + 10, _noop)
            victim = sim.schedule(sim.dispatch_time + 20, _noop)
            victim.cancel()
            survivors.append(keep)

        sim.schedule(0, spawn)
        sim.run(until=5)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_matches_naive_scan(self):
        sim = Simulator()
        calls = [sim.schedule((i * 7) % 50, _noop) for i in range(20)]
        for call in calls[::3]:
            call.cancel()
        naive = sum(1 for c in calls if not c.cancelled)
        assert sim.pending_events == naive


# ----------------------------------------------------------------------
# KernelEventQueue len / pending_count
# ----------------------------------------------------------------------

def _kevent(kind="timeout"):
    return KernelEvent(kind, 0, {"default": _noop})


class TestKernelQueueCounts:
    def test_push_confirm_counts(self):
        queue = KernelEventQueue()
        a, b = _kevent(), _kevent()
        queue.push(a)
        queue.push(b)
        assert len(queue) == 2
        assert queue.pending_count == 2
        b.confirm()
        assert len(queue) == 2
        assert queue.pending_count == 1

    def test_cancel_pending_and_ready(self):
        queue = KernelEventQueue()
        a, b = _kevent(), _kevent()
        queue.push(a)
        queue.push(b)
        b.confirm()
        a.cancel()  # cancelled while PENDING
        assert len(queue) == 1
        assert queue.pending_count == 0
        b.cancel()  # cancelled while READY
        assert len(queue) == 0
        assert queue.pending_count == 0

    def test_cancel_idempotent(self):
        queue = KernelEventQueue()
        a = _kevent()
        queue.push(a)
        a.cancel()
        a.cancel()
        assert len(queue) == 0
        assert queue.pending_count == 0

    def test_pop_and_remove_forget(self):
        queue = KernelEventQueue()
        events = [_kevent() for _ in range(4)]
        for event in events:
            event.confirm()
            queue.push(event)
        popped = queue.pop()
        assert popped is events[0]
        assert len(queue) == 3
        queue.remove(events[1])
        assert len(queue) == 2
        queue.remove_by_id(events[2].id)
        assert len(queue) == 1
        # a late cancel on a removed event must not corrupt the counters
        events[1].cancel()
        assert len(queue) == 1
        assert queue.pending_count == 0

    def test_counts_match_scan_after_mixed_transitions(self):
        queue = KernelEventQueue()
        events = [_kevent() for _ in range(10)]
        for event in events:
            queue.push(event)
        for event in events[::2]:
            event.confirm()
        for event in events[1:6:2]:
            event.cancel()
        live = [e for e in events if e.status in ("pending", "ready")]
        pending = [e for e in events if e.status == "pending"]
        assert len(queue) == len(live)
        assert queue.pending_count == len(pending)


# ----------------------------------------------------------------------
# zero-alloc dispatch (disabled tracer)
# ----------------------------------------------------------------------

def test_untraced_dispatch_allocates_nothing_net():
    """Draining pre-scheduled noops must not allocate on the hot path.

    The drain frees the queue entries it pops, so the block delta over
    the whole run is at most a small constant — never O(events).
    """
    sim = Simulator()
    for i in range(10_000):
        sim.schedule(i * 1_000, _noop)
    gc.collect()
    before = sys.getallocatedblocks()
    sim.run()
    delta = sys.getallocatedblocks() - before
    assert sim.events_processed == 10_000
    assert delta < 100, f"hot loop allocated {delta} net blocks"


# ----------------------------------------------------------------------
# same-time dispatch contract
# ----------------------------------------------------------------------

class TestSameTimeDispatch:
    def test_same_time_tasks_all_run_in_order(self):
        sim = Simulator()
        loop = EventLoop(sim, "main", task_dispatch_cost=0)
        order = []
        for i in range(50):
            loop.post(order.append, i, source=TaskSource.SCRIPT)
        sim.run()
        assert order == list(range(50))
        assert loop.tasks_run == 50

    def test_events_processed_matches_one_wake_per_task(self):
        """Every task costs exactly one simulator dispatch (its wake)."""
        sim = Simulator()
        loop = EventLoop(sim, "main", task_dispatch_cost=0)
        for i in range(50):
            loop.post(_noop, source=TaskSource.SCRIPT)
        sim.run()
        assert sim.events_processed == 50

    def test_run_until_keeps_per_event_granularity(self):
        """A predicate turning true between two same-time tasks must stop
        the run before the second one."""
        sim = Simulator()
        loop = EventLoop(sim, "main", task_dispatch_cost=0)
        ran = []
        loop.post(ran.append, "first", source=TaskSource.SCRIPT)
        loop.post(ran.append, "second", source=TaskSource.SCRIPT)
        sim.run_until(lambda: bool(ran))
        assert ran == ["first"]
        sim.run()
        assert ran == ["first", "second"]

    def test_runaway_same_time_chain_hits_backstop(self):
        """A task that re-posts itself at the same virtual time must trip
        max_events."""
        sim = Simulator()
        loop = EventLoop(sim, "main", task_dispatch_cost=0)

        def again():
            loop.post(again, source=TaskSource.SCRIPT)

        loop.post(again, source=TaskSource.SCRIPT)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run(max_events=2_000)

    def test_tasks_posted_mid_task_run_after_queued_ones(self):
        sim = Simulator()
        loop = EventLoop(sim, "main", task_dispatch_cost=0)
        order = []

        def first():
            order.append("first")
            loop.post(lambda: order.append("late"), source=TaskSource.SCRIPT)

        loop.post(first, source=TaskSource.SCRIPT)
        loop.post(lambda: order.append("second"), source=TaskSource.SCRIPT)
        sim.run()
        assert order == ["first", "second", "late"]

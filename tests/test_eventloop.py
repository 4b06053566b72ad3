"""Unit tests for the per-thread event loop."""

import pytest

from repro.errors import SimulationError
from repro.runtime.eventloop import EventLoop
from repro.runtime.simulator import Simulator
from repro.runtime.task import Microtask, Task, TaskSource


def make_loop(dispatch_cost=0):
    sim = Simulator()
    return sim, EventLoop(sim, "test", task_dispatch_cost=dispatch_cost)


def test_tasks_run_in_ready_order():
    sim, loop = make_loop()
    order = []
    loop.post(lambda: order.append("b"), delay=200)
    loop.post(lambda: order.append("a"), delay=100)
    sim.run()
    assert order == ["a", "b"]


def test_busy_task_delays_later_tasks():
    sim, loop = make_loop()
    times = {}
    loop.post(lambda: sim.consume(5_000_000), delay=0, label="busy")
    loop.post(lambda: times.__setitem__("second", sim.now), delay=1_000_000)
    sim.run()
    # the second task was ready at 1ms but the thread was busy until 5ms
    assert times["second"] >= 5_000_000


def test_task_cost_is_charged_before_callback():
    sim, loop = make_loop()
    seen = {}
    loop.post(lambda: seen.__setitem__("t", sim.now), cost=3_000_000)
    sim.run()
    assert seen["t"] == 3_000_000


def test_dispatch_cost_applies_to_every_task():
    sim, loop = make_loop(dispatch_cost=1_000)
    seen = {}
    loop.post(lambda: seen.__setitem__("t", sim.now))
    sim.run()
    assert seen["t"] == 1_000


def test_cancelled_task_skipped():
    sim, loop = make_loop()
    ran = []
    task = loop.post(lambda: ran.append(1))
    task.cancel()
    loop.post(lambda: ran.append(2))
    sim.run()
    assert ran == [2]


def test_microtasks_run_at_end_of_current_task():
    sim, loop = make_loop()
    order = []

    def task():
        loop.post(lambda: order.append("next-macrotask"))
        loop.post_microtask(Microtask(lambda: order.append("micro-1")))
        loop.post_microtask(Microtask(lambda: order.append("micro-2")))
        order.append("sync")

    loop.post(task)
    sim.run()
    assert order == ["sync", "micro-1", "micro-2", "next-macrotask"]


def test_microtask_posted_while_idle_still_runs():
    sim, loop = make_loop()
    ran = []
    loop.post_microtask(Microtask(lambda: ran.append(1)))
    sim.run()
    assert ran == [1]


def test_microtask_chain_can_starve_macrotasks_within_budget():
    sim, loop = make_loop()
    count = {"n": 0}

    def chain():
        count["n"] += 1
        if count["n"] < 50:
            loop.post_microtask(Microtask(chain))

    loop.post(lambda: loop.post_microtask(Microtask(chain)))
    sim.run()
    assert count["n"] == 50


def test_runaway_microtask_chain_raises():
    sim, loop = make_loop()

    def chain():
        loop.post_microtask(Microtask(chain))

    loop.post(lambda: loop.post_microtask(Microtask(chain)))
    with pytest.raises(SimulationError):
        sim.run()


def test_stop_clears_queue_and_refuses_new_work():
    sim, loop = make_loop()
    ran = []
    loop.post(lambda: ran.append(1), delay=1_000)
    loop.stop()
    loop.post(lambda: ran.append(2))
    sim.run()
    assert ran == []
    assert loop.stopped
    assert loop.idle


def test_trace_records_durations():
    sim, loop = make_loop()
    seen = []
    loop.task_observers.append(lambda task, start, end: seen.append((task.label, start, end)))
    loop.post(lambda: sim.consume(2_000_000), delay=1_000_000, label="work")
    sim.run()
    # label, start at the ready time, end after the consumed 2 ms
    assert seen == [("work", 1_000_000, 3_000_000)]


def test_task_observers_fire():
    sim, loop = make_loop()
    seen = []
    loop.task_observers.append(lambda task, start, end: seen.append((task.label, start, end)))
    loop.post(lambda: None, label="obs-me")
    sim.run()
    assert seen and seen[0][0] == "obs-me"


def test_pending_tasks_counts_only_live():
    sim, loop = make_loop()
    task = loop.post(lambda: None, delay=1_000)
    loop.post(lambda: None, delay=2_000)
    assert loop.pending_tasks == 2
    task.cancel()
    assert loop.pending_tasks == 1


def test_task_source_recorded():
    task = Task(lambda: None, source=TaskSource.TIMER)
    assert task.source is TaskSource.TIMER
    assert task.label == "<lambda>"

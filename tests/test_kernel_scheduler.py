"""Unit tests for the kernel scheduler (two-stage scheduling)."""

import pytest

from repro.kernel.kobjects import CANCELLED, DISPATCHED, PENDING, READY
from repro.kernel.policies.deterministic import DeterministicSchedulingPolicy
from repro.kernel.policy import CompositePolicy, SchedulingGrid
from repro.kernel.scheduler import FLOOR_HORIZON, MIN_SLOT_GAP
from repro.kernel.space import KernelSpace
from repro.runtime.eventloop import EventLoop
from repro.runtime.simtime import ms
from repro.runtime.simulator import Simulator
from repro.trace import capture


def _make_kspace():
    sim = Simulator()
    loop = EventLoop(sim, "ktest", task_dispatch_cost=0)
    policy = CompositePolicy([DeterministicSchedulingPolicy()])
    return KernelSpace(loop, policy, SchedulingGrid(), label="test")


@pytest.fixture
def kspace():
    return _make_kspace()


def test_timeout_prediction_on_grid(kspace):
    event = kspace.scheduler.register("timeout", hint=ms(5))
    # clock ~0, 5ms delay, 1ms grid -> next boundary after 5ms
    assert event.predicted_time == ms(6)
    assert event.status == PENDING


def test_raf_prediction_next_10ms_boundary(kspace):
    event = kspace.scheduler.register("raf")
    assert event.predicted_time == ms(10)
    kspace.clock.tick_to(ms(10))
    follow_up = kspace.scheduler.register("raf")
    assert follow_up.predicted_time == ms(20)


def test_predictions_depend_only_on_kernel_clock(kspace):
    """Real time must not leak into predictions."""
    first = kspace.scheduler.register("raf").predicted_time
    # advance REAL time massively; kernel clock untouched
    kspace.loop.sim.schedule(ms(500), lambda: None)
    kspace.loop.sim.run()
    second = kspace.scheduler.register("raf").predicted_time
    assert second - first == MIN_SLOT_GAP  # same slot, tie-broken only


def test_messages_spaced_per_chain(kspace):
    a1 = kspace.scheduler.register("message", chain="msg:a")
    a2 = kspace.scheduler.register("message", chain="msg:a")
    b1 = kspace.scheduler.register("message", chain="msg:b")
    assert a2.predicted_time - a1.predicted_time >= ms(1)
    # an independent channel is NOT serialised behind chain a
    assert b1.predicted_time - a1.predicted_time < ms(1)


def test_messages_respect_but_do_not_raise_floor(kspace):
    completion = kspace.scheduler.register("raf")  # floor -> 10ms
    message = kspace.scheduler.register("message", chain="msg:x")
    assert message.predicted_time > completion.predicted_time
    # a later completion is NOT pushed past the message slots
    next_completion = kspace.scheduler.register("network")
    assert next_completion.predicted_time <= completion.predicted_time + ms(10) + MIN_SLOT_GAP


def test_flooding_messages_do_not_drag_completions(kspace):
    """The history-sniffing regression: 50 arrivals must not push rAF."""
    for _ in range(50):
        kspace.scheduler.register("message", chain="msg:flood")
    raf = kspace.scheduler.register("raf")
    assert raf.predicted_time <= ms(10) + FLOOR_HORIZON


def test_far_timer_does_not_drag_floor(kspace):
    kspace.scheduler.register("timeout", hint=ms(10_000))  # 10s timer
    message = kspace.scheduler.register("message", chain="msg:x")
    assert message.predicted_time < ms(50)


def test_floor_capped_at_horizon(kspace):
    kspace.scheduler.register("timeout", hint=ms(60))  # within grid logic
    message = kspace.scheduler.register("message", chain="msg:x")
    assert message.predicted_time <= kspace.clock.now + FLOOR_HORIZON + ms(2)


def test_confirm_makes_ready_and_kicks(kspace):
    ran = []
    event = kspace.scheduler.register("timeout", {"default": lambda: ran.append(1)}, hint=0)
    kspace.scheduler.confirm(event)
    assert event.status == READY
    kspace.loop.sim.run()
    assert ran == [1]
    assert event.status == DISPATCHED


def test_register_confirmed_shortcut(kspace):
    seen = []
    kspace.scheduler.register_confirmed("message", seen.append, args=("m",), chain="c")
    kspace.loop.sim.run()
    assert seen == ["m"]


def test_cancellation_three_cases(kspace):
    # case 1: not happened yet
    pending = kspace.scheduler.register("timeout", {"default": lambda: None}, hint=ms(1))
    assert kspace.scheduler.cancel(pending) == "not-happened"
    assert pending.status == CANCELLED

    # case 2: confirmed but not invoked
    ready = kspace.scheduler.register("timeout", {"default": lambda: None}, hint=ms(1))
    ready.confirm()
    assert kspace.scheduler.cancel(ready) == "confirmed-not-invoked"

    # case 3: already invoked -> ignored
    done = kspace.scheduler.register("timeout", {"default": lambda: None}, hint=ms(1))
    kspace.scheduler.confirm(done)
    kspace.loop.sim.run()
    assert kspace.scheduler.cancel(done) == "already-invoked"
    assert done.status == DISPATCHED


def test_monotone_assignment_global(kspace):
    last = 0
    for kind in ("timeout", "raf", "network", "dom", "timeout"):
        event = kspace.scheduler.register(kind, hint=ms(1) if kind == "timeout" else None)
        assert event.predicted_time > last or kind == "timeout"
        last = max(last, event.predicted_time)


def test_counters():
    with capture() as tracer:
        kspace = _make_kspace()
        event = kspace.scheduler.register("timeout", {"default": lambda: None}, hint=0)
        kspace.scheduler.confirm(event)
        other = kspace.scheduler.register("timeout", hint=0)
        kspace.scheduler.cancel(other)
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["kernel.registered.timeout"] == 2
    assert counters["kernel.confirmed"] == 1
    assert counters["kernel.cancelled.not-happened"] == 1


def test_cancel_takes_the_event_out_of_the_queue_depth():
    """A cancelled event leaves the queue at once, not when it would
    have reached the head: the depth gauge counts live events only."""
    with capture() as tracer:
        kspace = _make_kspace()
        kspace.scheduler.register("timeout", hint=ms(1))
        later = kspace.scheduler.register("timeout", hint=ms(5))
        assert kspace.scheduler.cancel(later) == "not-happened"
    gauges = tracer.metrics.snapshot()["gauges"]
    assert gauges["kernel.queue.depth.kernel:test"] == 1
    assert len(kspace.queue) == 1

"""Unit tests for the kernel dispatcher: ordering, pacing, blocking."""

import pytest

from repro.kernel.policies.deterministic import DeterministicSchedulingPolicy
from repro.kernel.policy import CompositePolicy, SchedulingGrid
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


def test_dispatch_order_follows_predicted_time(kspace):
    order = []
    early = kspace.scheduler.register(
        "timeout", {"default": lambda: order.append("early")}, hint=ms(1)
    )
    late = kspace.scheduler.register("raf", {"default": lambda: order.append("late")})
    # confirm in the "wrong" order: late first
    kspace.scheduler.confirm(late)
    kspace.scheduler.confirm(early)
    kspace.loop.sim.run()
    assert order == ["early", "late"]
    assert early.predicted_time < late.predicted_time


def test_pending_head_blocks_later_events(kspace):
    """Paper §III-D3: 'if pending, the dispatcher will wait'."""
    order = []
    head = kspace.scheduler.register(
        "timeout", {"default": lambda: order.append("head")}, hint=ms(1)
    )
    tail = kspace.scheduler.register(
        "timeout", {"default": lambda: order.append("tail")}, hint=ms(2)
    )
    kspace.scheduler.confirm(tail)
    # real time passes; tail is confirmed but must NOT run before head
    kspace.loop.sim.schedule(ms(50), lambda: kspace.scheduler.confirm(head))
    kspace.loop.sim.run()
    assert order == ["head", "tail"]


def test_cancelled_head_is_discarded(kspace):
    order = []
    head = kspace.scheduler.register(
        "timeout", {"default": lambda: order.append("head")}, hint=ms(1)
    )
    tail = kspace.scheduler.register(
        "timeout", {"default": lambda: order.append("tail")}, hint=ms(2)
    )
    kspace.scheduler.confirm(tail)
    kspace.scheduler.cancel(head)
    kspace.loop.sim.run()
    assert order == ["tail"]


def test_pacing_holds_back_early_confirmations(kspace):
    """An event confirmed instantly still dispatches near its slot."""
    times = {}
    event = kspace.scheduler.register(
        "timeout", {"default": lambda: times.__setitem__("at", kspace.loop.sim.now)},
        hint=ms(8),
    )
    kspace.scheduler.confirm(event)  # confirmed at real t=0
    kspace.loop.sim.run()
    assert times["at"] >= ms(8)


def test_late_confirmation_dispatches_immediately_and_slips_anchor(kspace):
    times = {}
    event = kspace.scheduler.register(
        "timeout", {"default": lambda: times.__setitem__("first", kspace.loop.sim.now)},
        hint=ms(1),
    )
    kspace.loop.sim.schedule(ms(40), lambda: kspace.scheduler.confirm(event))
    kspace.loop.sim.run()
    assert ms(40) <= times["first"] < ms(41)
    # after the slip, a next event with a 1ms-later slot paces ~1ms later
    follow = kspace.scheduler.register(
        "timeout", {"default": lambda: times.__setitem__("second", kspace.loop.sim.now)},
        hint=ms(1),
    )
    kspace.scheduler.confirm(follow)
    kspace.loop.sim.run()
    assert times["second"] - times["first"] <= ms(3)


def test_dispatch_advances_kernel_clock_to_slot(kspace):
    slots = {}
    event = kspace.scheduler.register(
        "timeout", {"default": lambda: slots.__setitem__("clock", kspace.clock.now)},
        hint=ms(5),
    )
    kspace.scheduler.confirm(event)
    kspace.loop.sim.run()
    assert slots["clock"] >= event.predicted_time


def test_this_binding(kspace):
    seen = []
    target = object()
    event = kspace.scheduler.register(
        "dom", {"default": lambda this, value: seen.append((this, value))}
    )
    kspace.scheduler.confirm(event, args=(42,), this=target)
    kspace.loop.sim.run()
    assert seen == [(target, 42)]


def test_dispatched_count():
    with capture() as tracer:
        kspace = _make_kspace()
        for i in range(3):
            event = kspace.scheduler.register("timeout", {"default": lambda: None}, hint=0)
            kspace.scheduler.confirm(event)
        kspace.loop.sim.run()
    assert tracer.metrics.snapshot()["counters"]["kernel.dispatched.timeout"] == 3
    assert len(kspace.queue) == 0

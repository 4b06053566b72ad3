"""Unit tests for kernel objects: events, queue, clock, comm envelopes."""

import pytest

from repro.errors import KernelError
from repro.kernel import comm
from repro.kernel.kclock import KernelClock, KernelPerformance
from repro.kernel.kobjects import (
    CANCELLED,
    DISPATCHED,
    PENDING,
    READY,
    KernelEvent,
    KernelEventQueue,
)
from repro.runtime.simtime import ms, us
from repro.runtime.simulator import Simulator


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------

def test_event_lifecycle_pending_ready():
    event = KernelEvent("timeout", ms(5), {"default": lambda: None})
    assert event.status == PENDING
    event.confirm(args=(1, 2))
    assert event.status == READY
    assert event.args == (1, 2)
    assert event.chosen_callback is not None


def test_confirm_selects_callback_and_deletes_others():
    """Paper §III-D1: onload fires -> onerror deleted from the event."""
    onload, onerror = (lambda: "l"), (lambda: "e")
    event = KernelEvent("dom", ms(5), {"onload": onload, "onerror": onerror})
    event.confirm(which="onload")
    assert event.chosen_callback is onload
    assert list(event.callbacks) == ["onload"]


def test_confirm_unknown_callback_raises():
    event = KernelEvent("dom", 0, {"onload": lambda: None})
    with pytest.raises(KernelError):
        event.confirm(which="onerror")


def test_cancel_before_and_after_confirm():
    queue = KernelEventQueue()
    a = queue.push(KernelEvent("timeout", 0))
    queue.remove(a, CANCELLED)
    assert a.status == CANCELLED
    a.confirm()  # confirm on cancelled: ignored
    assert a.status == CANCELLED

    b = queue.push(KernelEvent("timeout", 0, {"default": lambda: None}))
    b.confirm()
    queue.remove(b, CANCELLED)
    assert b.status == CANCELLED
    assert len(queue) == 0 and queue.top() is None


def test_double_confirm_raises():
    event = KernelEvent("timeout", 0, {"default": lambda: None})
    event.confirm()
    with pytest.raises(KernelError):
        event.confirm()


# ----------------------------------------------------------------------
# queue
# ----------------------------------------------------------------------

def test_queue_orders_by_predicted_time():
    queue = KernelEventQueue()
    late = queue.push(KernelEvent("a", ms(10)))
    early = queue.push(KernelEvent("b", ms(1)))
    # equal predicted times break by the queue's own push counter
    tie_first = queue.push(KernelEvent("c", ms(5)))
    tie_second = queue.push(KernelEvent("d", ms(5)))
    assert [late.id, early.id, tie_first.id, tie_second.id] == [1, 2, 3, 4]
    assert queue.top() is early
    assert queue.pop() is early
    assert queue.pop() is tie_first
    assert queue.pop() is tie_second
    assert queue.pop() is late
    assert queue.pop() is None


def test_queue_remove_drops_the_event():
    queue = KernelEventQueue()
    event = queue.push(KernelEvent("a", ms(1)))
    queue.remove(event, CANCELLED)
    assert queue.top() is None
    # removal is the one exit: a second removal changes nothing
    queue.remove(event, DISPATCHED)
    assert event.status == CANCELLED and len(queue) == 0


def test_queue_skips_cancelled():
    queue = KernelEventQueue()
    first = queue.push(KernelEvent("a", ms(1)))
    second = queue.push(KernelEvent("b", ms(2)))
    queue.remove(first, CANCELLED)
    assert len(queue) == 1
    assert queue.top() is second


# ----------------------------------------------------------------------
# kernel clock
# ----------------------------------------------------------------------

def test_kernel_clock_api_ticks_are_fixed():
    clock = KernelClock(api_tick_ns=us(10))
    clock.api_tick()
    clock.api_tick()
    assert clock.now == us(20)


def test_kernel_clock_tick_to_never_goes_back():
    clock = KernelClock()
    clock.tick_to(ms(5))
    clock.tick_to(ms(3))
    assert clock.now == ms(5)


def test_kernel_clock_display_quantizes():
    clock = KernelClock(display_resolution_ns=ms(1))
    clock.tick_to(ms(3) + 123_456)
    assert clock.display_ns() == ms(3)
    assert clock.display_ms() == 3.0


def test_kernel_performance_advances_per_call():
    sim = Simulator()
    clock = KernelClock(api_tick_ns=us(10), display_resolution_ns=us(10))
    perf = KernelPerformance(clock, sim)
    first = perf.now()
    second = perf.now()
    # deterministic: exactly one tick apart, regardless of real time
    assert second - first == pytest.approx(0.01)
    assert perf.time_origin == 0.0


# ----------------------------------------------------------------------
# kernel/user message overlay
# ----------------------------------------------------------------------

def test_wrap_and_classify_user():
    kind, payload, command = comm.classify(comm.wrap_user({"x": 1}))
    assert kind == "user"
    assert payload == {"x": 1}
    assert command is None


def test_wrap_and_classify_kernel():
    kind, payload, command = comm.classify(comm.wrap_kernel("confirmFetch", 7))
    assert kind == "kernel"
    assert command == "confirmFetch"
    assert payload == 7


def test_raw_messages_pass_through():
    kind, payload, _ = comm.classify("plain")
    assert kind == "raw"
    assert payload == "plain"


def test_user_cannot_spoof_kernel_commands():
    """A malicious page posting a kernel-shaped dict must stay user data."""
    spoof = {comm.ENVELOPE_KEY: comm.TYPE_KERNEL, "command": "load-user-thread"}
    wrapped = comm.wrap_user(spoof)
    kind, payload, command = comm.classify(wrapped)
    assert kind == "user"
    assert command is None
    assert payload == spoof

"""The one simulator run loop.

``Simulator.run(until, stop, max_events)`` is the only loop that pops and
dispatches events; ``step``, ``run_until`` and ``attacks.base.run_until_key``
are entry points on it.  These tests pin:

* equality with the three loops it replaced (kept below as the
  reference), over random schedules with same-time events,
  cancellations, nested schedules, ``until`` bounds, stop predicates and
  event budgets;
* ``run_until_key``'s outcomes: the key arrives, the deadline passes, the
  queue drains, and the event that crosses the deadline still runs;
* the runaway backstop under ``run_until_key``.
"""

import heapq
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.base import MeasurementTimeout, run_until_key
from repro.errors import DeadlockError, SimulationError
from repro.runtime.simtime import ms
from repro.runtime.simulator import MAX_EVENTS_ENV, Simulator, default_max_events


# ----------------------------------------------------------------------
# the replaced loops: step, run_until (pop + dispatch) and the inlined run
# ----------------------------------------------------------------------

def ref_pop_next(sim):
    heap = sim._heap
    while heap:
        call = heapq.heappop(heap)[2]
        if not call.cancelled:
            return call
    return None


def ref_dispatch(sim, call):
    sim._time = call.time
    sim._live -= 1
    call.sim = None
    n = sim.events_processed + 1
    sim.events_processed = n
    label = call.label or "call"
    sim._dispatch_label = label
    sim._dispatch_ordinal = n
    sim._recent_labels.append(label)
    call.fn()


def ref_step(sim):
    call = ref_pop_next(sim)
    if call is None:
        return False
    ref_dispatch(sim, call)
    return True


def ref_run(sim, until=None, max_events=None):
    limit = default_max_events() if max_events is None else max_events
    bound = float("inf") if until is None else until
    heap = sim._heap
    processed = 0
    while heap:
        if heap[0][0] > bound:
            if until > sim._time:
                sim._time = until
            return
        call = heapq.heappop(heap)[2]
        if call.cancelled:
            continue
        ref_dispatch(sim, call)
        processed += 1
        if processed > limit:
            raise SimulationError(f"simulation exceeded {limit} events")
    if until is not None and until > sim._time:
        sim._time = until


def ref_run_until(sim, predicate, max_events=None):
    limit = default_max_events() if max_events is None else max_events
    processed = 0
    while not predicate():
        call = ref_pop_next(sim)
        if call is None:
            raise DeadlockError("event queue drained before the awaited condition became true")
        ref_dispatch(sim, call)
        processed += 1
        if processed > limit:
            raise SimulationError(f"run_until exceeded {limit} events")


# ----------------------------------------------------------------------
# differential property: reference loops == the one run loop
# ----------------------------------------------------------------------

#: Times sit on a 5 ns grid, so same-time events and events exactly at
#: an ``until`` bound are common.
TIME = st.integers(0, 8).map(lambda t: 5 * t)
#: What an event does when it runs: schedule a child ``delay`` ns after
#: its own time (0 = same time), or cancel the ``i``-th handle made so far.
ACTION = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from((0, 5, 10))),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
)
BUDGET = st.none() | st.integers(1, 6)
#: Driver calls: run(until), run until k events ran, run until event j
#: ran, step.
OP = st.one_of(
    st.tuples(st.just("run"), st.none() | TIME.map(lambda t: 2 * t), BUDGET),
    st.tuples(st.just("count"), st.integers(0, 30), BUDGET),
    st.tuples(st.just("event"), st.integers(0, 30), BUDGET),
    st.tuples(st.just("step"), st.none(), st.none()),
)
SCENARIO = st.fixed_dictionaries({
    "initial": st.lists(TIME, max_size=8),
    # event i's plan; events past the list are leaves, so every run ends
    "plans": st.lists(st.lists(ACTION, max_size=3), max_size=24),
    "cancel_first": st.lists(st.integers(0, 1000), max_size=3),
    "ops": st.lists(OP, min_size=1, max_size=6),
})


def _build(spec):
    sim = Simulator()
    log = []
    handles = []
    ids = itertools.count()

    def schedule(at):
        i = next(ids)
        plan = spec["plans"][i] if i < len(spec["plans"]) else []

        def fire():
            log.append(i)
            for kind, arg in plan:
                if kind == "schedule":
                    schedule(sim.dispatch_time + arg)
                elif handles:
                    handles[arg % len(handles)].cancel()

        handles.append(sim.schedule(at, fire, label=f"e{i}"))

    for at in spec["initial"]:
        schedule(at)
    for index in spec["cancel_first"]:
        if handles:
            handles[index % len(handles)].cancel()
    return sim, log


def _drive(spec, reference):
    sim, log = _build(spec)
    seen = []
    for kind, arg, budget in spec["ops"]:
        if kind == "count":
            predicate = (lambda k: lambda: len(log) >= k)(arg)
        elif kind == "event":
            predicate = (lambda j: lambda: j in log)(arg)
        try:
            if kind == "step":
                result = ref_step(sim) if reference else sim.step()
            elif kind == "run":
                result = (ref_run(sim, arg, budget) if reference
                          else sim.run(until=arg, max_events=budget))
            elif reference:
                result = ref_run_until(sim, predicate, budget)
            else:
                result = sim.run(stop=predicate, max_events=budget)
        except SimulationError as exc:
            result = type(exc).__name__
        seen.append((result, list(log), sim.dispatch_time, sim.events_processed,
                     sim.pending_events))
    return seen


@settings(max_examples=150, deadline=None)
@given(SCENARIO)
def test_one_run_loop_equals_the_replaced_loops(spec):
    assert _drive(spec, reference=False) == _drive(spec, reference=True)


# ----------------------------------------------------------------------
# until and stop together
# ----------------------------------------------------------------------

def test_stop_keeps_the_clock_at_the_last_dispatch():
    sim = Simulator()
    box = {}
    sim.schedule(10, lambda: box.setdefault("k", 1))
    sim.schedule(20, lambda: None)
    sim.run(until=100, stop=lambda: "k" in box)
    assert sim.dispatch_time == 10
    assert sim.pending_events == 1


def test_next_event_past_until_advances_the_clock_with_stop_false():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.schedule(200, lambda: None)
    sim.run(until=100, stop=lambda: False)
    assert sim.dispatch_time == 100
    assert sim.pending_events == 1


def test_drain_under_a_false_stop_deadlocks_even_with_until():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    # a cancelled entry left in the heap is not a live event
    sim.schedule(200, lambda: None).cancel()
    with pytest.raises(DeadlockError):
        sim.run(until=100, stop=lambda: False)
    assert sim.dispatch_time == 10


# ----------------------------------------------------------------------
# run_until_key
# ----------------------------------------------------------------------

def _browser(sim):
    """``run_until_key`` only reads ``browser.sim``."""
    return SimpleNamespace(sim=sim)


def test_run_until_key_returns_the_value_when_the_key_arrives():
    sim = Simulator()
    box = {}
    sim.schedule(ms(5), lambda: box.__setitem__("k", 42))
    sim.schedule(ms(6), lambda: box.__setitem__("k", 43))
    assert run_until_key(_browser(sim), box, "k", timeout_ms=10) == 42
    assert sim.dispatch_time == ms(5)


def test_run_until_key_times_out_at_the_deadline():
    sim = Simulator()

    def tick():
        sim.schedule(sim.now + ms(1), tick, "tick")

    sim.schedule(0, tick, "tick")
    with pytest.raises(MeasurementTimeout) as info:
        run_until_key(_browser(sim), {}, "k", timeout_ms=10)
    assert str(info.value) == "no 'k' within 10 ms of virtual time"
    assert sim.dispatch_time == ms(10)


def test_run_until_key_reports_a_drained_queue():
    sim = Simulator()
    sim.schedule(ms(1), lambda: None)
    with pytest.raises(MeasurementTimeout) as info:
        run_until_key(_browser(sim), {}, "k", timeout_ms=10)
    assert str(info.value) == "simulation drained without 'k'"


def test_run_until_key_dispatches_the_event_that_crosses_the_deadline():
    sim = Simulator()
    box = {}
    sim.schedule(ms(9), lambda: None)
    sim.schedule(ms(25), lambda: box.__setitem__("k", "late"))
    assert run_until_key(_browser(sim), box, "k", timeout_ms=10) == "late"
    assert sim.dispatch_time == ms(25)


def test_run_until_key_falls_under_the_event_backstop(monkeypatch):
    monkeypatch.setenv(MAX_EVENTS_ENV, "1000")
    sim = Simulator()

    def respawn():
        sim.schedule(sim.now, respawn, "spin")

    sim.schedule(0, respawn, "spin")
    with pytest.raises(SimulationError, match="spin"):
        run_until_key(_browser(sim), {}, "k", timeout_ms=10)
    assert sim.events_processed == 1001

"""Unit tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.runtime.simulator import ExecutionFrame, Simulator


def test_events_dispatch_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(300, lambda: order.append("c"))
    sim.schedule(100, lambda: order.append("a"))
    sim.schedule(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_times_dispatch_fifo():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.schedule(50, lambda n=name: order.append(n))
    sim.run()
    assert order == ["a", "b", "c"]


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    call = sim.schedule(10, lambda: ran.append(1))
    call.cancel()
    sim.run()
    assert ran == []
    assert sim.pending_events == 0


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    assert sim.dispatch_time == 100
    with pytest.raises(SimulationError):
        sim.schedule(50, lambda: None)


def test_run_until_time_stops_before_later_events():
    sim = Simulator()
    ran = []
    sim.schedule(100, lambda: ran.append("early"))
    sim.schedule(10_000, lambda: ran.append("late"))
    sim.run(until=1_000)
    assert ran == ["early"]
    assert sim.now == 1_000
    sim.run()
    assert ran == ["early", "late"]


def test_run_until_rechecks_the_bound_after_a_cancelled_head():
    sim = Simulator()
    ran = []
    head = sim.schedule(100, lambda: ran.append(100))
    sim.schedule(200, lambda: ran.append(200))
    head.cancel()
    sim.run(until=150)
    assert ran == []
    assert sim.now == 150
    sim.run()
    assert ran == [200]


def test_run_until_over_an_all_cancelled_queue_advances_the_clock():
    sim = Simulator()
    for time in (100, 120):
        sim.schedule(time, lambda: None).cancel()
    sim.run(until=150)
    assert sim.now == 150
    assert sim.pending_events == 0


def test_run_until_an_earlier_time_keeps_the_clock():
    sim = Simulator()
    ran = []
    sim.schedule(100, lambda: ran.append(100))
    sim.schedule(300, lambda: ran.append(300))
    sim.run(until=150)
    assert sim.now == 150
    sim.run(until=120)
    assert ran == [100]
    assert sim.now == 150
    with pytest.raises(SimulationError):
        sim.schedule(130, lambda: None)
    sim.run()
    assert ran == [100, 300]


def test_run_until_predicate():
    sim = Simulator()
    box = {}
    sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: box.__setitem__("done", True))
    sim.schedule(30, lambda: box.__setitem__("extra", True))
    sim.run_until(lambda: "done" in box)
    assert "done" in box
    assert "extra" not in box


def test_run_until_raises_on_drained_queue():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: False)


def test_runaway_backstop():
    sim = Simulator()

    def respawn():
        sim.schedule(sim.now + 1, respawn)

    sim.schedule(0, respawn)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def _respawning_sim(label="spin"):
    sim = Simulator()

    def respawn():
        sim.schedule(sim.now + 1, respawn, label=label)

    sim.schedule(0, respawn, label=label)
    return sim


def test_backstop_error_includes_recent_labels():
    sim = _respawning_sim(label="hot-loop")
    with pytest.raises(SimulationError) as info:
        sim.run(max_events=50)
    assert "hot-loop" in str(info.value)
    assert "last dispatched" in str(info.value)


def test_backstop_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "25")
    sim = _respawning_sim()
    with pytest.raises(SimulationError) as info:
        sim.run()
    assert "25 events" in str(info.value)


def test_backstop_env_applies_to_run_until(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "25")
    sim = _respawning_sim()
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False)


def test_backstop_env_invalid_values(monkeypatch):
    sim = _respawning_sim()
    monkeypatch.setenv("REPRO_MAX_EVENTS", "not-a-number")
    with pytest.raises(SimulationError):
        sim.run()
    monkeypatch.setenv("REPRO_MAX_EVENTS", "0")
    with pytest.raises(SimulationError):
        sim.run()


def test_backstop_parameter_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "1000000")
    sim = _respawning_sim()
    with pytest.raises(SimulationError) as info:
        sim.run(max_events=10)
    assert "10 events" in str(info.value)


def test_frames_report_local_time():
    sim = Simulator()
    seen = {}

    def task():
        frame = ExecutionFrame(sim.dispatch_time, "t")
        sim.push_frame(frame)
        frame.consume(500)
        seen["mid"] = sim.now
        frame.consume(500)
        seen["end"] = sim.now
        sim.pop_frame()

    sim.schedule(1_000, task)
    sim.run()
    assert seen == {"mid": 1_500, "end": 2_000}


def test_consume_outside_frame_is_noop():
    sim = Simulator()
    sim.consume(1_000_000)
    assert sim.now == 0


def test_negative_cost_rejected():
    frame = ExecutionFrame(0, "t")
    with pytest.raises(SimulationError):
        frame.consume(-1)


def test_pop_without_frame_raises():
    with pytest.raises(SimulationError):
        Simulator().pop_frame()


def test_schedule_after_uses_local_time():
    sim = Simulator()
    fired_at = {}

    def task():
        frame = ExecutionFrame(sim.dispatch_time, "t")
        sim.push_frame(frame)
        frame.consume(700)
        sim.schedule_after(300, lambda: fired_at.__setitem__("t", sim.now))
        sim.pop_frame()

    sim.schedule(1_000, task)
    sim.run()
    assert fired_at["t"] == 2_000  # 1000 start + 700 local + 300 delay


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_dispatch_order_is_sorted(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == sorted(times)

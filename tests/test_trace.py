"""Tests for the tracing & metrics subsystem (:mod:`repro.trace`)."""

import json

import pytest

from repro.harness import run_table1
from repro.runtime.eventloop import EventLoop
from repro.runtime.simtime import ms, us
from repro.runtime.simulator import Simulator
from repro.runtime.task import Microtask
from repro.telemetry import QuantileSketch
from repro.trace import (
    NULL_TRACER,
    Counter,
    MetricsRegistry,
    Tracer,
    capture,
    current_tracer,
    dump_chrome_trace,
    format_timeline,
)


def _run_loop_scenario():
    """One delayed task that drains two microtasks, then a second task."""
    sim = Simulator()
    loop = EventLoop(sim, "main", task_dispatch_cost=0)

    def first():
        loop.post_microtask(Microtask(lambda: None, cost=us(3), label="m1"))
        loop.post_microtask(Microtask(lambda: None, cost=us(2), label="m2"))

    loop.post(first, delay=ms(5), cost=us(10), label="first")
    loop.post(lambda: None, delay=ms(9), cost=us(4), label="second")
    sim.run()
    return sim


# ----------------------------------------------------------------------
# spans, nesting and virtual-time ordering
# ----------------------------------------------------------------------
def test_task_spans_are_ordered_by_virtual_time():
    with capture() as tracer:
        _run_loop_scenario()
    spans = [e for e in tracer.events if e["ph"] == "X" and e["thread"] == "main"]
    assert [s["name"] for s in spans] == ["first", "second"]
    first, second = spans
    assert first["ts"] == ms(5)  # ready_time honoured, in virtual ns
    assert first["dur"] >= us(10) + us(3) + us(2)
    # the second span starts strictly after the first ends
    assert second["ts"] >= first["ts"] + first["dur"]
    # emission order is virtual-time order
    assert [s["ts"] for s in spans] == sorted(s["ts"] for s in spans)


def test_microtask_checkpoint_nests_inside_its_task_span():
    with capture() as tracer:
        _run_loop_scenario()
    (first,) = [e for e in tracer.events if e["ph"] == "X" and e["name"] == "first"]
    (mark,) = [e for e in tracer.events if e["name"] == "microtask-checkpoint"]
    assert mark["ph"] == "i"
    assert mark["args"]["count"] == 2
    # the instant falls within the enclosing task span
    assert first["ts"] <= mark["ts"] <= first["ts"] + first["dur"]


def test_queue_delay_is_measured_and_recorded():
    with capture() as tracer:
        _run_loop_scenario()
    spans = [e for e in tracer.events if e["ph"] == "X"]
    for span in spans:
        assert span["args"]["queue_delay_ns"] >= 0
    snap = tracer.metrics.snapshot()
    assert snap["counters"]["eventloop.tasks.script"] == 2
    assert snap["counters"]["eventloop.microtasks.main"] == 2
    assert snap["histograms"]["eventloop.queue_delay_ns.main"]["count"] == 2


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
def test_registry_histogram_is_a_quantile_sketch_with_exact_moments():
    registry = MetricsRegistry()
    h = registry.histogram("h")
    assert isinstance(h, QuantileSketch)
    for value in (10, 11, 100, 101):
        h.add(value)
    assert registry.histogram("h") is h  # created once, reused by name
    assert h.count == 4
    assert h.total == 222
    assert h.min == 10
    assert h.max == 101
    assert h.quantile(0.5) == pytest.approx(11, rel=0.01)


def test_counter_rejects_decrements():
    c = Counter()
    c.inc(2)
    assert c.value == 2
    with pytest.raises(ValueError):
        c.inc(-1)


def test_registry_snapshot_is_plain_json_serialisable_data():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h").add(7)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 3}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"] == registry.histogram("h").to_dict()
    assert snap["histograms"]["h"]["count"] == 1
    json.dumps(snap)  # embeds in harness payloads without custom encoders


def test_registry_merge_folds_counters_gauges_histograms_and_sketches():
    worker = MetricsRegistry()
    worker.counter("cells").inc(3)
    worker.gauge("depth").set(4.0)
    histogram = worker.histogram("h")
    for value in (3, 20, 50, 120):
        histogram.add(value)
    snap = worker.snapshot()

    merged = MetricsRegistry()
    merged.counter("cells").inc(2)
    merged.gauge("depth").set(1.0)
    merged.merge_snapshot(snap)
    merged.merge_snapshot(snap)
    out = merged.snapshot()
    assert out["counters"] == {"cells": 8}
    assert out["gauges"] == {"depth": 4.0}  # last write wins
    h = out["histograms"]["h"]
    assert h["count"] == 8 and h["sum"] == 386
    assert h["min"] == 3 and h["max"] == 120
    # centroid-wise addition: every centroid's weight and sum doubled
    doubled = [[i, 2 * w, 2 * t] for i, w, t in snap["histograms"]["h"]["pos"]]
    assert h["pos"] == doubled


def test_registry_snapshot_round_trips_through_json_and_merge():
    worker = MetricsRegistry()
    worker.counter("a").inc()
    worker.gauge("g").set(2.5)
    worker.histogram("s").add(7)
    snap = worker.snapshot()

    fresh = MetricsRegistry()
    fresh.merge_snapshot(json.loads(json.dumps(snap)))
    assert json.dumps(fresh.snapshot(), sort_keys=True) == json.dumps(
        snap, sort_keys=True
    )


def test_registry_merge_rejects_a_histogram_accuracy_mismatch():
    # worker input whose sketch sits on a different log grid cannot be
    # folded centroid-wise
    registry = MetricsRegistry()
    registry.histogram("h").add(5)
    other = QuantileSketch(accuracy=0.01)
    other.add(5)
    with pytest.raises(ValueError, match="different accuracies"):
        registry.merge_snapshot({"histograms": {"h": other.to_dict()}})


def test_metrics_format_prints_histogram_quantiles():
    registry = MetricsRegistry()
    for value in range(1, 101):
        registry.histogram("lat").add(value)
    line = registry.format().splitlines()[-1]
    assert line.split()[0] == "lat"
    for field in ("n=100", "mean=50", "min=1", "max=100", "p50=", "p90=", "p95=", "p99="):
        assert field in line, field


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def test_chrome_trace_round_trips_through_json():
    with capture() as tracer:
        _run_loop_scenario()
    data = json.loads(dump_chrome_trace(tracer))
    events = data["traceEvents"]
    assert events
    for event in events:
        assert "ph" in event and "ts" in event and "tid" in event and "pid" in event
    thread_rows = [
        e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert "main" in [e["args"]["name"] for e in thread_rows]
    # ts is virtual-time microseconds: the first task ran at 5 ms
    (first,) = [e for e in events if e.get("name") == "first"]
    assert first["ts"] == ms(5) / 1000
    assert first["cat"] == "task"


def test_timeline_is_sorted_and_mentions_events():
    with capture() as tracer:
        _run_loop_scenario()
    text = format_timeline(tracer)
    lines = text.splitlines()
    assert any("first" in line for line in lines)
    stamps = [float(line.split("ms")[0]) for line in lines]
    assert stamps == sorted(stamps)


def test_cli_trace_matrix_writes_a_chrome_trace(tmp_path, capsys):
    from repro.__main__ import main

    path = str(tmp_path / "trace.json")
    main(["trace", "matrix", "--out", path])
    assert f"wrote {path}" in capsys.readouterr().out
    events = json.load(open(path))["traceEvents"]
    real = [e for e in events if e["ph"] != "M"]
    assert real
    assert all("ts" in e and "pid" in e and "tid" in e for e in real)
    assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in events)


# ----------------------------------------------------------------------
# disabled fast path
# ----------------------------------------------------------------------
def test_disabled_tracer_collects_nothing():
    assert current_tracer() is NULL_TRACER
    before_events = len(NULL_TRACER)
    before_metrics = NULL_TRACER.metrics.snapshot()
    sim = _run_loop_scenario()  # no capture() active
    assert sim.tracer is NULL_TRACER
    assert sim.trace_pid == 0
    assert len(NULL_TRACER) == before_events == 0
    assert NULL_TRACER.metrics.snapshot() == before_metrics


def test_capture_restores_previous_tracer_on_exit():
    outer = Tracer()
    with capture(outer):
        inner = Tracer()
        with capture(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is NULL_TRACER


# ----------------------------------------------------------------------
# kernel lifecycle + determinism over a real harness slice
# ----------------------------------------------------------------------
def _capture_matrix_slice() -> Tracer:
    tracer = Tracer()
    with capture(tracer):
        run_table1(attacks=["cve-2018-5092"], defenses=["legacy-chrome", "jskernel"])
    return tracer


def test_kernel_event_lifecycle_appears_as_async_legs():
    tracer = _capture_matrix_slice()
    begins = [e for e in tracer.events if e["ph"] == "b" and e["cat"] == "kernel-event"]
    confirms = [e for e in tracer.events if e["ph"] == "n"]
    ends = [e for e in tracer.events if e["ph"] == "e"]
    assert begins and confirms and ends
    # every leg of one lifecycle shares the span id allocated at register
    span_ids = {e["id"] for e in begins}
    assert {e["id"] for e in ends} <= span_ids


def test_two_seeded_captures_are_byte_identical():
    first = dump_chrome_trace(_capture_matrix_slice())
    second = dump_chrome_trace(_capture_matrix_slice())
    assert first == second


def test_cancelled_kernel_event_exports_its_end_leg():
    from repro.defenses import make_browser

    tracer = Tracer()
    with capture(tracer):
        browser = make_browser("jskernel")
        page = browser.open_page("https://example.test/")

        def script(scope):
            timer_id = scope.setTimeout(lambda: None, 5)
            scope.setTimeout(lambda: scope.clearTimeout(timer_id), 1)

        page.run_script(script, label="cancel-script")
        browser.sim.run()

    cancels = [
        e
        for e in tracer.events
        if e["ph"] == "e"
        and e["cat"] == "kernel-event"
        and "cancelled" in e["args"]
    ]
    assert cancels, "clearTimeout should cancel a registered kernel event"
    # the cancelled leg closes the span opened at registration
    begin_ids = {
        e["id"]
        for e in tracer.events
        if e["ph"] == "b" and e["cat"] == "kernel-event"
    }
    assert all(e["id"] in begin_ids for e in cancels)
    # and it survives Chrome-trace export with its id intact
    exported = json.loads(dump_chrome_trace(tracer))["traceEvents"]
    exported_cancels = [
        e for e in exported if e["ph"] == "e" and "cancelled" in e.get("args", {})
    ]
    assert len(exported_cancels) == len(cancels)
    assert all("id" in e for e in exported_cancels)

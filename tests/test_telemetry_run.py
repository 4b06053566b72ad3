"""Tests for the telemetry run layer: spans, reporter, session, exports.

The flagship assertions here come straight from the issue's acceptance
criteria:

* a 200-cell cube run's merged p50/p95 queue-delay quantiles are within
  1% rank error of the exact full-sample percentiles, while the engine
  never materialises a per-cell raw sample list in the parent process
  (the merge path is instrumented to prove it);
* the deterministic snapshot is byte-identical across ``--parallel``
  worker counts for a fixed seed;
* engine and cache accounting are mirrored into their own sections and
  never double-counted in the metrics section.
"""

import io
import json
import math
import os
import re

import pytest

from repro.harness.cache import ResultCache
from repro.harness.matrix import run_table1
from repro.harness.parallel import Cell, ExperimentEngine
from repro.telemetry import (
    QUEUE_DELAY_PREFIX,
    LiveReporter,
    QuantileSketch,
    RunTelemetry,
    SpanRecorder,
    current_recorder,
    current_run,
    prometheus_lines,
    render_prometheus,
    render_summary,
    set_recorder,
    span,
    telemetry_session,
    worker_recorder,
    write_telemetry,
)
from repro.trace import metrics as metrics_mod

MATRIX_ATTACKS = ["clock-edge", "svg-filtering"]
MATRIX_DEFENSES = ["legacy-chrome", "jskernel"]

#: One ``name{label="v",...} value`` Prometheus exposition sample.
PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9eE.+NaInf-]+$'
)


def read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle.read().splitlines()]


def assert_runlog_balanced(path):
    """A ``--runlog`` file opens and closes the run, balances every span
    per process and logs at least one cell outcome."""
    records = read_records(path)
    assert all({"ev", "ts", "pid"} <= set(record) for record in records)
    assert records[0]["ev"] == "run_begin" and records[-1]["ev"] == "run_end"
    open_spans = set()
    for record in records:
        key = (record["pid"], record.get("span"))
        if record["ev"] == "span_begin":
            open_spans.add(key)
        elif record["ev"] == "span_end":
            assert "dur_s" in record
            open_spans.remove(key)
    assert open_spans == set()
    assert any(record.get("name") == "engine.cell" for record in records)
    return records


def assert_telemetry_report(json_path, prom_path):
    """A ``--telemetry-out`` report and its Prometheus sibling are
    well-formed, and the engine accounting balances."""
    report = json.load(open(json_path))
    assert set(report) == {"version", "command", "engine", "cache", "metrics", "run"}
    engine = report["engine"]
    assert engine["cells"] == engine["computed"] + engine["cached"]
    for name, data in report["metrics"]["histograms"].items():
        assert len(data["counts"]) == len(data["bounds"]) + 1, name
        assert data["overflow"] == data["counts"][-1], name
    for name, data in report["metrics"].get("sketches", {}).items():
        weights = sum(w for _i, w, _s in data["pos"]) + sum(w for _i, w, _s in data["neg"])
        assert data["count"] == data["zero"] + weights, name
    samples = [
        line for line in open(prom_path).read().splitlines()
        if line and not line.startswith("#")
    ]
    assert samples
    assert all(PROM_SAMPLE.match(line) for line in samples)
    assert any(line.startswith("repro_engine_cells ") for line in samples)
    return report


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
def test_span_recorder_emits_balanced_nested_jsonl(tmp_path):
    path = str(tmp_path / "run.jsonl")
    recorder = SpanRecorder(path)
    with recorder.span("outer", label="a") as outer_id:
        recorder.point("checkpoint", n=1)
        with recorder.span("inner") as inner_id:
            pass
    recorder.close()

    records = read_records(path)
    assert [r["ev"] for r in records] == [
        "span_begin",
        "point",
        "span_begin",
        "span_end",
        "span_end",
    ]
    for record in records:
        assert {"ev", "ts", "pid"} <= set(record)
        assert record["pid"] == os.getpid()
    begin_outer, point, begin_inner, end_inner, end_outer = records
    # parent linkage reconstructs the execution tree
    assert begin_outer["parent"] is None
    assert point["parent"] == outer_id
    assert begin_inner["parent"] == outer_id
    assert end_inner["span"] == inner_id and "dur_s" in end_inner
    assert end_outer["span"] == outer_id and "dur_s" in end_outer
    assert begin_outer["attrs"] == {"label": "a"}
    # closing twice and emitting after close are safe no-ops
    recorder.close()
    recorder.emit("late")
    assert len(read_records(path)) == 5


def test_module_span_is_a_noop_without_a_recorder(tmp_path):
    assert current_recorder() is None
    with span("anything", x=1) as span_id:
        assert span_id is None

    recorder = SpanRecorder(str(tmp_path / "run.jsonl"))
    previous = set_recorder(recorder)
    try:
        with span("covered") as span_id:
            assert span_id is not None
    finally:
        set_recorder(previous)
        recorder.close()
    assert [r["ev"] for r in read_records(recorder.path)] == ["span_begin", "span_end"]


def test_worker_recorder_opens_the_inherited_path_once(tmp_path, monkeypatch):
    from repro.telemetry import spans as spans_mod

    path = str(tmp_path / "run.jsonl")
    monkeypatch.setenv("REPRO_RUNLOG", path)
    monkeypatch.setattr(spans_mod, "_active", None)

    opens = []
    real_init = SpanRecorder.__init__

    def counting_init(self, recorder_path):
        opens.append(recorder_path)
        real_init(self, recorder_path)

    monkeypatch.setattr(SpanRecorder, "__init__", counting_init)

    recorder = worker_recorder()
    assert recorder is not None and recorder.path == path
    # regression: a long-lived pool worker calls worker_recorder() once
    # per chunk; it must reuse the cached recorder (one fd, one lock),
    # not construct a fresh SpanRecorder per call
    for _ in range(5):
        assert worker_recorder() is recorder
    assert opens == [path]
    assert current_recorder() is recorder  # installed ambiently

    recorder.point("from-worker")
    assert read_records(path)[0]["name"] == "from-worker"

    # a *changed* inherited path (new telemetry session in the parent)
    # does trigger one reopen
    other = str(tmp_path / "other.jsonl")
    monkeypatch.setenv("REPRO_RUNLOG", other)
    reopened = worker_recorder()
    assert reopened is not recorder and reopened.path == other
    assert opens == [path, other]

    # with no inherited path the cached recorder still serves (the
    # parent process inside a telemetry session), and with neither a
    # cache nor a path there is nothing to record to
    monkeypatch.delenv("REPRO_RUNLOG")
    assert worker_recorder() is reopened
    monkeypatch.setattr(spans_mod, "_active", None)
    assert worker_recorder() is None

    recorder.close()
    reopened.close()


# ----------------------------------------------------------------------
# live reporter
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.moment = 100.0

    def __call__(self):
        return self.moment


def test_live_reporter_renders_progress_and_throttles():
    clock = FakeClock()
    stream = io.StringIO()
    telemetry = RunTelemetry("cube")
    telemetry.reporter = LiveReporter(
        "cube", stream=stream, interval=0.2, now=clock, interactive=True
    )
    telemetry.engine_started(workers=2, cells=4)
    telemetry.shards_planned(2)

    cell = Cell("cube", {"attack": "a", "defense": "d", "seed": 0})
    clock.moment += 1.0
    telemetry.cell_finished(cell, ok=True, cached=True)
    telemetry.cell_finished(cell, ok=True, cached=False)  # throttled: same instant
    assert telemetry.reporter.renders == 1

    clock.moment += 1.0
    telemetry.merge_metrics(
        {"sketches": {QUEUE_DELAY_PREFIX + "main": _sketch_of([0, 1000, 2500000]).to_dict()}}
    )
    telemetry.shard_done(0, 2)
    telemetry.cell_finished(cell, ok=False, cached=False, error="boom")
    telemetry.reporter.finish(telemetry)

    line = stream.getvalue().split("\r")[-1]
    assert line.endswith("\n")
    assert "cube" in line
    assert "3/4 cells" in line and "75%" in line
    assert "cache 33% hit" in line
    assert "errors 1" in line
    assert "shard 1/2" in line
    assert "q-delay p50" in line
    assert "eta" in line


def test_live_reporter_falls_back_to_newlines_off_tty():
    clock = FakeClock()
    stream = io.StringIO()  # StringIO has no isatty -> detected non-interactive
    telemetry = RunTelemetry("cube")
    reporter = LiveReporter("cube", stream=stream, interval=0.2, now=clock)
    telemetry.reporter = reporter
    assert reporter.interactive is False
    # the non-interactive throttle is much coarser than the TTY repaint
    assert reporter.interval == 5.0

    telemetry.engine_started(workers=2, cells=4)
    cell = Cell("cube", {"attack": "a", "defense": "d", "seed": 0})
    clock.moment += 6.0
    telemetry.cell_finished(cell, ok=True, cached=False)
    clock.moment += 1.0  # under the 5s throttle: no line
    telemetry.cell_finished(cell, ok=True, cached=False)
    clock.moment += 6.0
    telemetry.cell_finished(cell, ok=True, cached=False)
    reporter.finish(telemetry)

    output = stream.getvalue()
    # newline-delimited progress lines, never the \r-overwrite trick
    # (piped to a CI log, \r would concatenate every repaint into one line)
    assert "\r" not in output
    lines = output.splitlines()
    assert len(lines) == 3  # two throttled updates + the final repaint
    assert all(line.startswith("cube") for line in lines)
    assert "3/4 cells" in lines[-1]
    # and the explicit override still forces TTY behaviour
    forced = LiveReporter("cube", stream=io.StringIO(), now=clock, interactive=True)
    assert forced.interactive is True and forced.interval == 0.2


def test_live_reporter_detects_a_tty(monkeypatch):
    class TtyStream(io.StringIO):
        def isatty(self):
            return True

    reporter = LiveReporter("cube", stream=TtyStream())
    assert reporter.interactive is True


def _sketch_of(values):
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    return sketch


# ----------------------------------------------------------------------
# the session: ambient install, run log lifecycle, restoration
# ----------------------------------------------------------------------
def test_telemetry_session_installs_and_restores_everything(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RUNLOG", raising=False)
    path = str(tmp_path / "RUN_matrix.jsonl")
    stream = io.StringIO()
    assert current_run() is None

    with telemetry_session("matrix", live=True, runlog=path, stream=stream) as telem:
        assert current_run() is telem
        assert os.environ["REPRO_RUNLOG"] == path
        result = run_table1(
            attacks=MATRIX_ATTACKS, defenses=MATRIX_DEFENSES, seed=0
        )

    assert current_run() is None
    assert current_recorder() is None
    assert "REPRO_RUNLOG" not in os.environ
    assert result.errors == []

    records = read_records(path)
    assert records[0]["ev"] == "run_begin" and records[0]["command"] == "matrix"
    assert records[-1]["ev"] == "run_end"
    assert records[-1]["cells"] == 4 and records[-1]["computed"] == 4
    # the matrix run wrapped the engine in a matrix.run span and logged
    # one outcome per cell
    names = [r.get("name") for r in records]
    assert "matrix.run" in names
    assert sum(1 for r in records if r.get("name") == "engine.cell") == 4
    assert_runlog_balanced(path)
    # live output ended with a newline'd final repaint
    assert stream.getvalue().endswith("\n")
    assert "4/4 cells" in stream.getvalue()


def test_engine_accounting_balances_in_the_snapshot():
    with telemetry_session("matrix") as telem:
        run_table1(attacks=MATRIX_ATTACKS, defenses=MATRIX_DEFENSES, seed=0)
    snapshot = telem.snapshot()
    assert snapshot["version"] == 1
    assert snapshot["command"] == "matrix"
    engine = snapshot["engine"]
    assert engine["cells"] == engine["computed"] + engine["cached"] == 4
    assert engine["runs"] == 1 and engine["errors"] == 0
    # runtime metrics came back from the private per-cell tracers
    assert snapshot["metrics"]["counters"]
    assert snapshot["metrics"]["sketches"]


# ----------------------------------------------------------------------
# satellite: deterministic merging across worker counts
# ----------------------------------------------------------------------
def test_snapshot_is_byte_identical_across_worker_counts():
    snapshots = {}
    for workers in (None, 2, 3):
        with telemetry_session("matrix") as telem:
            run_table1(
                attacks=MATRIX_ATTACKS,
                defenses=MATRIX_DEFENSES,
                seed=0,
                parallel=workers,
            )
        snapshots[workers] = json.dumps(telem.snapshot(), sort_keys=True)
    assert snapshots[None] == snapshots[2] == snapshots[3]


# ----------------------------------------------------------------------
# satellite: cache/engine counters mirrored once, never double-counted
# ----------------------------------------------------------------------
def test_cache_traffic_is_mirrored_without_double_counting(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cells = [
        Cell("table1", {"attack": attack, "defense": "jskernel", "seed": 0})
        for attack in MATRIX_ATTACKS
    ]
    with telemetry_session("matrix") as telem:
        engine = ExperimentEngine(cache=cache)
        engine.run(cells)  # cold: all computed
        engine.run(cells)  # warm: all cached

    assert telem.engine == {
        "runs": 2,
        "cells": 4,
        "computed": 2,
        "cached": 2,
        "errors": 0,
    }
    # mirrored straight from the ResultCache's own counters
    assert telem.cache == {"hits": cache.hits, "misses": cache.misses, "stores": cache.stores}
    assert telem.cache == {"hits": 2, "misses": 2, "stores": 2}
    # and kept out of the metrics section: runtime metrics only
    leaked = [
        name
        for name in telem.metrics.snapshot()["counters"]
        if name.startswith("engine.") or name.startswith("cache.")
    ]
    assert leaked == []


# ----------------------------------------------------------------------
# acceptance: 200-cell cube, sketch quantiles vs exact percentiles
# ----------------------------------------------------------------------
def _cube_cells(seeds):
    return [
        Cell(
            "cube",
            {"attack": attack, "defense": defense, "seed": seed, "sketches": True},
        )
        for attack in ("svg-filtering", "cache-attack")
        for defense in ("legacy-chrome", "jskernel")
        for seed in seeds
    ]


def test_200_cell_cube_quantiles_match_exact_percentiles_without_raw_samples():
    cells = _cube_cells(range(50))
    assert len(cells) == 200

    # --- reference pass (serial): spy on the sketch tee to also keep
    # the exact raw queue-delay samples the sketches absorb
    sketch_names = {}
    keepalive = []
    exact_samples = []
    real_histogram = metrics_mod.MetricsRegistry.histogram
    real_add = QuantileSketch.add

    def spy_histogram(self, name, *args, **kwargs):
        histogram = real_histogram(self, name, *args, **kwargs)
        if histogram.sketch is not None and id(histogram.sketch) not in sketch_names:
            sketch_names[id(histogram.sketch)] = name
            keepalive.append(histogram.sketch)
        return histogram

    def spy_add(self, value, weight=1):
        if sketch_names.get(id(self), "").startswith(QUEUE_DELAY_PREFIX):
            exact_samples.extend([value] * weight)
        return real_add(self, value, weight)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(metrics_mod.MetricsRegistry, "histogram", spy_histogram)
        patcher.setattr(QuantileSketch, "add", spy_add)
        with telemetry_session("cube") as serial_telem:
            ExperimentEngine(workers=None).run(cells)
    serial_snapshot = json.dumps(serial_telem.snapshot(), sort_keys=True)

    merged = serial_telem.metrics.merged_sketch(QUEUE_DELAY_PREFIX)
    assert merged.count == len(exact_samples)
    assert len(exact_samples) > 10_000  # a real sample volume, not a toy

    # --- measured pass (parallel, unpatched): instrument the merge path
    # to prove no per-cell raw sample list ever reaches the parent
    crossings = []
    real_merge = RunTelemetry.merge_metrics

    def spy_merge(self, snapshot):
        crossings.append(snapshot)
        return real_merge(self, snapshot)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(RunTelemetry, "merge_metrics", spy_merge)
        with telemetry_session("cube") as telem:
            ExperimentEngine(workers=2).run(cells)

    # deterministic merging: the parallel snapshot equals the serial one
    assert json.dumps(telem.snapshot(), sort_keys=True) == serial_snapshot

    # everything that crossed the merge path is bounded sketch/histogram
    # state — centroid lists capped by the compression bound, histogram
    # count lists capped by the bucket table — never a raw sample list
    assert crossings
    crossed_samples = 0
    crossed_centroids = 0
    for snapshot in crossings:
        for name, data in snapshot.get("sketches", {}).items():
            centroids = len(data["pos"]) + len(data["neg"])
            assert centroids <= data["max_centroids"]
            if name.startswith(QUEUE_DELAY_PREFIX):
                crossed_samples += data["count"]
                crossed_centroids += centroids
        for data in snapshot.get("histograms", {}).values():
            assert len(data["counts"]) == len(data["bounds"]) + 1
    # the merged stream summarised far more samples than the state that
    # carried them (the zero mode alone collapses thousands of samples)
    assert crossed_samples == len(exact_samples)
    assert crossed_centroids < crossed_samples / 10

    # --- the acceptance bound: p50/p95 within 1% rank error of the
    # exact full-sample percentiles (bracketing exact values one rank
    # percent either side, widened by the sketch's value resolution)
    exact_samples.sort()
    n = len(exact_samples)
    quantiles = telem.queue_delay_quantiles()
    for q, estimate in ((0.5, quantiles["p50"]), (0.95, quantiles["p95"])):
        lo = exact_samples[max(0, math.floor((q - 0.01) * (n - 1)))]
        hi = exact_samples[min(n - 1, math.ceil((q + 0.01) * (n - 1)))]
        assert lo * 0.989 - 1e-9 <= estimate <= hi * 1.011 + 1e-9, (
            f"q={q}: {estimate} outside exact rank window [{lo}, {hi}]"
        )


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _small_report():
    with telemetry_session("matrix") as telem:
        run_table1(attacks=["svg-filtering"], defenses=["legacy-chrome"], seed=0)
    return telem.report()


def test_report_adds_the_wall_clock_section():
    report = _small_report()
    run = report["run"]
    assert run["duration_s"] > 0
    assert run["cells_per_s"] > 0
    assert run["shards"] == {"total": 0, "done": 0}  # serial: no shards
    assert set(run["queue_delay_quantiles"]) == {"p50", "p95", "p99"}


def test_prometheus_export_grammar_and_content(tmp_path):
    report = _small_report()
    lines = prometheus_lines(report)
    by_name = {}
    for line in lines:
        if line.startswith("#"):
            continue
        name = line.split("{")[0].split(" ")[0]
        by_name.setdefault(name, []).append(line)

    assert by_name["repro_engine_cells"] == ["repro_engine_cells 1"]
    assert "repro_run_duration_seconds" in by_name
    # histogram series: cumulative le buckets ending in +Inf, plus
    # count and sum
    histogram_buckets = [
        line
        for name, series in by_name.items()
        if name.endswith("_bucket")
        for line in series
    ]
    assert histogram_buckets
    assert any('le="+Inf"' in line for line in histogram_buckets)
    # sketch-derived summary series with quantile labels
    sketch_series = [
        line
        for name, series in by_name.items()
        if name.endswith("_sketch")
        for line in series
    ]
    assert any('quantile="0.5"' in line for line in sketch_series)
    assert any('quantile="0.99"' in line for line in sketch_series)
    # a histogram's exported _sum carries the real accumulated value
    metrics = report["metrics"]["histograms"]
    name, snap = next(iter(metrics.items()))
    prom = "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)
    assert by_name[prom + "_sum"] == [f"{prom}_sum {snap['sum']}"]

    json_path, prom_path = write_telemetry(report, str(tmp_path / "telemetry.json"))
    assert prom_path == str(tmp_path / "telemetry.prom")
    assert json.load(open(json_path))["engine"]["cells"] == 1
    assert open(prom_path).read() == render_prometheus(report)
    assert_telemetry_report(json_path, prom_path)


def test_render_summary_is_one_line():
    report = _small_report()
    summary = render_summary(report)
    assert summary.startswith("telemetry: cells=1 computed=1 cached=0")
    assert "duration=" in summary
    assert "\n" not in summary


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
def test_cli_cube_writes_runlog_and_telemetry(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.delenv("REPRO_RUNLOG", raising=False)
    runlog = str(tmp_path / "RUN_cube.jsonl")
    out = str(tmp_path / "telemetry.json")
    rc = main(
        [
            "cube",
            "--attacks",
            "svg-filtering",
            "--defenses",
            "legacy-chrome,jskernel",
            "--no-cache",
            "--runlog",
            runlog,
            "--telemetry-out",
            out,
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "telemetry: cells=2 computed=2" in captured.err
    assert f"wrote {runlog}" in captured.err
    assert_runlog_balanced(runlog)
    report = assert_telemetry_report(out, str(tmp_path / "telemetry.prom"))
    assert report["engine"]["cells"] == report["engine"]["computed"] == 2
    # telemetry mode runs the cube with sketches, so the snapshot's
    # quantiles are populated
    assert report["run"]["queue_delay_quantiles"]["p95"] > 0


def test_cli_sharded_fuzz_writes_runlog_and_telemetry(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.delenv("REPRO_RUNLOG", raising=False)
    # the CLI overwrites $REPRO_MAX_EVENTS with its own budget; setting
    # it through monkeypatch restores the variable afterwards
    monkeypatch.setenv("REPRO_MAX_EVENTS", "1")
    runlog = str(tmp_path / "RUN_fuzz.jsonl")
    out = str(tmp_path / "telemetry.json")
    rc = main(
        [
            "fuzz",
            "--attack",
            "cve-2018-5092",
            "--defense",
            "legacy-chrome",
            "--budget",
            "20",
            "--parallel",
            "2",
            "--no-cache",
            "--no-minimize",
            "--max-witnesses",
            "1",
            "--out",
            str(tmp_path / "witnesses"),
            "--runlog",
            runlog,
            "--telemetry-out",
            out,
        ]
    )
    assert rc == 0
    assert "17 witnesses" in capsys.readouterr().out
    records = assert_runlog_balanced(runlog)
    # the pool workers appended their own records to the shared log
    assert len({record["pid"] for record in records}) > 1
    report = assert_telemetry_report(out, str(tmp_path / "telemetry.prom"))
    assert report["command"] == "fuzz"
    assert report["engine"]["cells"] == report["engine"]["computed"] == 2
    assert report["engine"]["errors"] == 0
    assert report["metrics"]["histograms"]


def test_cli_rejects_telemetry_flags_on_non_experiment_commands(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["analyze", "races", "cve-2018-5092", "--live"])
    assert "--live" in capsys.readouterr().err

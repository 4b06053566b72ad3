"""Tests for the causal analysis layer (:mod:`repro.analysis`).

Covers the happens-before graph builder, the race detector (the
acceptance pair: ≥ 1 race under the baseline CVE scenario, 0 under
JSKernel), the determinism auditor (divergence 0 under the general policy
across ≥ 3 seeds on every Table I row, > 0 under baseline), the
critical-path profiler, the kernel queue-depth counter and the
``analyze`` CLI surface.
"""

import json

import pytest

from repro.__main__ import main
from repro.analysis.critpath import profile_scenario
from repro.analysis.determinism import (
    DETERMINISTIC_DEFENSES,
    audit_scenario,
    schedule_divergence,
)
from repro.analysis.hbgraph import build_hb_graph
from repro.analysis.races import analyze_scenario, detect_races
from repro.analysis.scenario import run_traced_scenario
from repro.attacks import attack_names
from repro.defenses import JSKernelDefense
from repro.runtime import Browser, chrome
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms
from repro.trace import Tracer, capture

AUDIT_SEEDS = (0, 1, 2)


# ----------------------------------------------------------------------
# happens-before graph construction
# ----------------------------------------------------------------------
def _instant(pid, thread, name, ts, **args):
    return {"ph": "i", "s": "t", "pid": pid, "thread": thread, "name": name,
            "cat": "", "ts": ts, "args": args}


def test_program_order_chains_events_on_one_thread():
    events = [
        _instant(1, "main", "a", 0),
        _instant(1, "main", "b", 10),
        _instant(1, "worker", "c", 5),
    ]
    graph = build_hb_graph(events)
    assert graph.happens_before(0, 1)
    assert not graph.happens_before(0, 2)  # different threads, no edge
    assert not graph.ordered(1, 2)


def test_flow_edges_order_cross_thread_pairs_transitively():
    events = [
        _instant(1, "main", "postMessage", 0, flow=7),
        _instant(1, "worker", "message.receive", 40, flow=7),
        _instant(1, "worker", "later", 50),
    ]
    graph = build_hb_graph(events)
    assert graph.happens_before(0, 1)  # the flow edge itself
    assert graph.happens_before(0, 2)  # via worker program order


def test_worker_terminate_joins_only_the_terminating_context():
    # the worker row runs a task at an earlier virtual time that Python
    # executes *after* the terminate call — chaining terminate onto the
    # worker row would order them falsely
    events = [
        _instant(1, "worker-1", "worker.terminate", 100, ctx="main"),
        _instant(1, "worker-1", "state.access", 50, obj="x", op="write", kind="sab"),
        _instant(1, "main", "after", 120),
    ]
    graph = build_hb_graph(events)
    assert not graph.ordered(0, 1)  # terminate does not order the worker row
    assert graph.happens_before(0, 2)  # but it does order within ctx=main


def test_kernel_span_legs_chain_by_span_id():
    events = [
        {"ph": "b", "pid": 1, "thread": "kernel:main", "name": "kevent:timeout",
         "cat": "kernel-event", "id": 3, "ts": 0, "args": {"ctx": "main"}},
        {"ph": "e", "pid": 1, "thread": "kernel:main", "name": "kevent:timeout",
         "cat": "kernel-event", "id": 3, "ts": 90, "args": {"ctx": "main"}},
        _instant(1, "main", "unrelated", 10),
    ]
    graph = build_hb_graph(events)
    assert graph.happens_before(0, 1)


def test_a_promise_settled_off_its_thread_orders_its_reaction():
    """The "promise flows" edge kind on a real run: a jskernel worker
    awaits a fetch whose abort signal the main thread fires, so the
    fetch promise settles on the main thread and reacts in the worker."""
    shared = {}
    seen = []
    with capture(Tracer()) as tracer:
        browser = Browser(profile=chrome(), defense=JSKernelDefense(), seed=1)
        page = browser.open_page("https://app.example/")
        browser.network.host_simple(parse_url("https://app.example/f"), 64_000)

        def script(scope):
            def worker_main(ws):
                shared["controller"] = controller = ws.AbortController()
                ws.fetch("/f", {"signal": controller.signal}).then(
                    lambda _r: ws.postMessage("fetched"),
                    lambda _e: ws.postMessage("aborted"),
                )
                ws.postMessage("started")

            def on_message(event):
                seen.append(event.data)
                if event.data == "started":
                    scope.setTimeout(lambda: shared["controller"].abort(), 1)

            worker = scope.Worker(worker_main)
            worker.onmessage = on_message

        page.run_script(script)
        browser.run(until=ms(500))
        browser.close()
    assert seen == ["started", "aborted"]

    graph = build_hb_graph(tracer.events)
    (settle,) = [e for e in graph.events if e.name == "promise.settle"]
    (reaction,) = [e for e in graph.events if e.name == "promise.reaction"]
    assert settle.thread.startswith("main:") and reaction.thread.startswith("worker-")
    assert settle.args["flow"] == reaction.args["flow"] != 0
    assert settle.index in reaction.preds  # the flow edge itself
    assert graph.happens_before(settle.index, reaction.index)


# ----------------------------------------------------------------------
# race detection — the acceptance pair
# ----------------------------------------------------------------------
def test_baseline_cve_scenario_has_a_use_after_free_race():
    report = analyze_scenario("cve-2018-5092", "legacy-chrome", seed=0)
    assert report["race_count"] >= 1
    patterns = {
        race["pattern"] for run in report["runs"] for race in run["races"]
    }
    assert "use-after-free" in patterns
    # the racing pair is the teardown free against the abort-path deref
    (race,) = [r for run in report["runs"] for r in run["races"]]
    assert {race["first"]["access"], race["second"]["access"]} == {"free", "deref"}
    assert race["first"]["thread"] != race["second"]["thread"]


def test_jskernel_orders_the_same_scenario_race_free():
    report = analyze_scenario("cve-2018-5092", "jskernel", seed=0)
    assert report["race_count"] == 0
    # not vacuous: the traced runs do perform shared-state accesses
    assert sum(run["shared_accesses"] for run in report["runs"]) > 0


def test_detect_races_ignores_same_thread_and_read_read_pairs():
    events = [
        _instant(1, "main", "state.access", 0, obj="o", op="write", kind="sab"),
        _instant(1, "main", "state.access", 10, obj="o", op="write", kind="sab"),
        _instant(1, "worker", "state.access", 5, obj="o", op="read", kind="sab"),
        _instant(1, "viewer", "state.access", 6, obj="o", op="read", kind="sab"),
    ]
    graph = build_hb_graph(events)
    races = detect_races(graph)
    # the same-thread write/write pair and the cross-thread read/read pair
    # never race; each of the 2 writes races each of the 2 reads
    assert len(races) == 4
    assert all(r.pattern == "read-write" for r in races)
    assert all({r.first.thread, r.second.thread} != {"worker", "viewer"} for r in races)


# ----------------------------------------------------------------------
# determinism audit — the acceptance pair
# ----------------------------------------------------------------------
#: Cells whose scenario dispatches nothing: the storage policy blocks the
#: private-mode IndexedDB write before any task runs.
EMPTY_SCHEDULES = {("cve-2017-7843", "jskernel")}


@pytest.mark.parametrize("defense", DETERMINISTIC_DEFENSES)
@pytest.mark.parametrize("attack", attack_names())
def test_jskernel_schedule_is_seed_independent(attack, defense):
    report = audit_scenario(attack, defense, seeds=AUDIT_SEEDS)
    assert report["deterministic"]
    assert report["divergence"] == 0
    assert report["first_divergence"] is None
    if (attack, defense) in EMPTY_SCHEDULES:
        assert report["schedule_length"] == 0
        assert report["outcomes"][0].startswith("blocked: indexedDB access denied")
    else:
        assert report["schedule_length"] > 0  # not vacuously empty


def test_baseline_schedule_diverges_across_seeds():
    report = audit_scenario("cache-attack", "legacy-chrome", seeds=AUDIT_SEEDS)
    assert not report["deterministic"]
    assert report["divergence"] > 0
    first = report["first_divergence"]
    assert first is not None and first["row"]


def test_schedule_divergence_counts_positional_disagreements():
    a = {"main": [("x", 1), ("y", 2)]}
    b = {"main": [("x", 1), ("y", 3), ("z", 4)]}
    score, first = schedule_divergence(a, b)
    assert score == 2
    assert first == {"row": "main", "position": 1, "a": ("y", 2), "b": ("y", 3)}
    assert schedule_divergence(a, a) == (0, None)


def test_audit_rejects_a_single_seed():
    with pytest.raises(ValueError):
        audit_scenario("cache-attack", "jskernel", seeds=(0,))


# ----------------------------------------------------------------------
# critical-path profiling
# ----------------------------------------------------------------------
def test_critpath_buckets_sum_exactly_to_total():
    report = profile_scenario("cve-2018-5092", "jskernel", seed=0)
    assert report["runs"]
    for run in report["runs"]:
        assert run["total_ns"] > 0
        parts = run["exec_ns"] + run["queue_ns"] + run["kernel_ns"] + run["wait_ns"]
        assert parts == run["total_ns"]
        assert run["path_events"] == len(run["steps"])


def test_critpath_under_jskernel_attributes_kernel_overhead():
    report = profile_scenario("cve-2018-5092", "jskernel", seed=0)
    assert any(run["kernel_ns"] > 0 for run in report["runs"])


# ----------------------------------------------------------------------
# kernel queue depth counter (satellite)
# ----------------------------------------------------------------------
def test_kernel_queue_depth_counter_is_emitted():
    tracer, _outcome = run_traced_scenario("cve-2018-5092", "jskernel", seed=0)
    samples = [e for e in tracer.events if e["name"] == "kernel.queue_depth"]
    assert samples
    assert all(e["ph"] == "C" for e in samples)
    depths = [e["args"]["depth"] for e in samples]
    assert max(depths) >= 1  # events were queued...
    assert depths[-1] == 0  # ...and drained by the end of the run
    # consecutive samples on one row always show a changed depth
    by_row = {}
    for event in samples:
        by_row.setdefault(event["thread"], []).append(event["args"]["depth"])
    for row_depths in by_row.values():
        assert all(a != b for a, b in zip(row_depths, row_depths[1:]))
    snap = tracer.metrics.snapshot()
    assert any(name.startswith("kernel.queue.depth.") for name in snap["gauges"])


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_analyze_races_emits_valid_json(capsys):
    assert main(["analyze", "races", "cve-2018-5092",
                 "--defense", "legacy-chrome", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["race_count"] >= 1
    assert report["scenario"] == "cve-2018-5092"


def test_cli_rejects_unknown_attack_with_clear_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "races", "no-such-attack"])
    assert excinfo.value.code == 2
    assert "unknown attack" in capsys.readouterr().err


def test_cli_rejects_unknown_defense_with_clear_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "races", "cve-2018-5092", "--defense", "nope"])
    assert excinfo.value.code == 2
    assert "unknown defense" in capsys.readouterr().err


def test_cli_trace_attack_validates_names(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "attack", "no-such-attack"])
    assert excinfo.value.code == 2
    assert "unknown attack" in capsys.readouterr().err


def test_cli_rejects_unknown_analyze_mode(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "frobnicate", "cve-2018-5092"])
    assert excinfo.value.code == 2
    assert "unknown analyze mode" in capsys.readouterr().err


def test_cli_analyze_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "critpath", "cve-2018-5092", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["runs"] and report["runs"][0]["total_ns"] > 0

"""Unit tests for the defense registry and per-defense mechanisms."""

import pytest

from repro.defenses import (
    TABLE1_DEFENSES,
    available,
    create,
    make_browser,
)
from repro.runtime.clock import FuzzyClockPolicy, QuantizedClockPolicy
from repro.runtime.simtime import ms


def test_registry_contains_all_table1_columns():
    names = available()
    for defense in TABLE1_DEFENSES:
        assert defense in names
    assert {"jskernel-nodet", "jskernel-nocve", "jskernel-fuzzy"} <= set(names)


def test_unknown_defense_raises():
    with pytest.raises(KeyError):
        create("quantum-shield")


def test_make_browser_uses_defense_base_browser():
    browser = make_browser("fuzzyfox")
    assert browser.profile.name == "firefox"
    browser = make_browser("chromezero")
    assert browser.profile.name == "chrome"


def test_make_browser_bug_toggle():
    assert make_browser("legacy-chrome").profile.has_bug("cve_2018_5092")
    assert not make_browser("legacy-chrome", with_bugs=False).profile.has_bug("cve_2018_5092")


def test_legacy_defense_changes_nothing():
    browser = make_browser("legacy-chrome", with_bugs=False)
    assert isinstance(browser.clock_policy_factory(), QuantizedClockPolicy)
    assert browser.page_hooks == [] and browser.worker_hooks == []


def test_fuzzyfox_installs_fuzzy_clock_and_pause_pump():
    browser = make_browser("fuzzyfox", with_bugs=False)
    assert isinstance(browser.clock_policy_factory(), FuzzyClockPolicy)
    page = browser.open_page("https://x.example/")
    labels = []
    page.loop.task_observers.append(lambda task, start, end: labels.append(task.label))
    browser.run(until=ms(30))
    assert "fuzzyfox-pause" in labels  # the pump is running


def test_tor_clock_and_network():
    browser = make_browser("tor", with_bugs=False)
    policy = browser.clock_policy_factory()
    assert policy.report(ms(150)) == ms(100)
    assert browser.network.base_latency_ns >= ms(200)
    page = browser.open_page("https://x.example/")
    assert page.scope.js_cost_scale > 10  # JIT disabled


def test_chromezero_polyfill_worker_runs_on_main_loop():
    browser = make_browser("chromezero", with_bugs=False)
    page = browser.open_page("https://x.example/")
    seen = []

    def script(scope):
        def worker_main(ws):
            ws.onmessage = lambda event: ws.postMessage(event.data + 1)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.append(event.data)
        worker.postMessage(1)

    page.run_script(script)
    browser.run(until=ms(200))
    assert seen == [2]
    assert browser.workers == []  # no native worker was created


def test_chromezero_polyfill_has_no_parallelism():
    """The paper's cost: worker work blocks the main thread."""
    browser = make_browser("chromezero", with_bugs=False)
    page = browser.open_page("https://x.example/")
    times = {}

    def script(scope):
        def worker_main(ws):
            def on_message(_event):
                ws.busy_work(30.0)
                ws.postMessage("done")

            ws.onmessage = on_message

        worker = scope.Worker(worker_main)
        worker.postMessage("go")
        # a main-thread timer that should fire at 5ms gets blocked by the
        # "worker" computation running on the same loop
        scope.setTimeout(lambda: times.__setitem__("timer", browser.sim.now), 5)

    page.run_script(script)
    browser.run(until=ms(300))
    assert times["timer"] >= ms(30)


def test_deterfox_wraps_async_but_keeps_real_clocks():
    browser = make_browser("deterfox", with_bugs=False)
    page = browser.open_page("https://x.example/")
    seen = {}

    def script(scope):
        t0 = scope.performance.now()
        scope.busy_work(20.0)
        seen["clock_delta"] = scope.performance.now() - t0

        def frame(ts):
            seen.setdefault("raf_ts", []).append(ts)
            if len(seen["raf_ts"]) < 3:
                scope.requestAnimationFrame(frame)

        scope.requestAnimationFrame(frame)

    page.run_script(script)
    browser.run(until=ms(300))
    assert seen["clock_delta"] >= 19.0  # REAL clock: busy work visible
    deltas = [seen["raf_ts"][i + 1] - seen["raf_ts"][i] for i in range(2)]
    assert deltas == [10.0, 10.0]  # deterministic rAF delivery


def test_jskernel_defense_variants():
    full = create("jskernel")
    nodet = create("jskernel-nodet")
    nocve = create("jskernel-nocve")
    assert full.kernel.policy.find("deterministic-scheduling")
    assert full.kernel.policy.find("worker-lifecycle")
    assert nodet.kernel.policy.find("deterministic-scheduling") is None
    assert nocve.kernel.policy.find("worker-lifecycle") is None

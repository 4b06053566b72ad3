"""Integration tests for the kernel interface (wrapped APIs on a page)."""

import pytest

from repro.errors import SecurityError
from repro.runtime.simtime import ms
from repro.runtime.origin import parse_url


def run(browser, until_ms=200):
    browser.run(until=ms(until_ms))


def test_kernel_performance_is_logical(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        t0 = scope.performance.now()
        scope.busy_work(50.0)  # half a frame of real CPU time
        seen["delta"] = scope.performance.now() - t0

    kernel_page.run_script(script)
    run(kernel_browser)
    # uninstrumentable work is invisible to the kernel clock
    assert seen["delta"] < 2.0


def test_kernel_performance_is_sealed(kernel_browser, kernel_page):
    outcome = {}

    def script(scope):
        try:
            scope.performance = "fake"
        except SecurityError:
            outcome["blocked"] = True

    kernel_page.run_script(script)
    run(kernel_browser)
    assert outcome.get("blocked")


def test_kernel_timer_fires_on_grid(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        t0 = scope.performance.now()
        scope.setTimeout(lambda: seen.__setitem__("at", scope.performance.now() - t0), 5)

    kernel_page.run_script(script)
    run(kernel_browser)
    assert seen["at"] == pytest.approx(6.0, abs=1.01)


def test_kernel_clear_timeout(kernel_browser, kernel_page):
    fired = []

    def script(scope):
        timer_id = scope.setTimeout(lambda: fired.append(1), 5)
        scope.clearTimeout(timer_id)

    kernel_page.run_script(script)
    run(kernel_browser)
    assert fired == []


def test_kernel_interval_repeats_and_clears(kernel_browser, kernel_page):
    count = {"n": 0}

    def script(scope):
        def tick():
            count["n"] += 1
            if count["n"] == 3:
                scope.clearInterval(interval_id)

        interval_id = scope.setInterval(tick, 5)

    kernel_page.run_script(script)
    run(kernel_browser, 500)
    assert count["n"] == 3


def test_kernel_raf_timestamps_deterministic(kernel_browser, kernel_page):
    timestamps = []

    def script(scope):
        def frame(ts):
            timestamps.append(ts)
            scope.busy_work(25.0)  # would delay real frames
            if len(timestamps) < 4:
                scope.requestAnimationFrame(frame)

        scope.requestAnimationFrame(frame)

    kernel_page.run_script(script)
    run(kernel_browser, 1000)
    deltas = [timestamps[i + 1] - timestamps[i] for i in range(3)]
    assert deltas == [10.0, 10.0, 10.0]


def test_kernel_cancel_raf(kernel_browser, kernel_page):
    fired = []

    def script(scope):
        raf_id = scope.requestAnimationFrame(fired.append)
        scope.cancelAnimationFrame(raf_id)

    kernel_page.run_script(script)
    run(kernel_browser)
    assert fired == []


def test_kernel_fetch_resolves_with_response(kernel_browser, kernel_page):
    kernel_browser.network.host_simple(
        parse_url("https://app.example/data"), 1_000, body="payload"
    )
    seen = {}

    def script(scope):
        scope.fetch("/data").then(lambda r: seen.__setitem__("body", r.body))

    kernel_page.run_script(script)
    run(kernel_browser, 500)
    assert seen["body"] == "payload"


def test_kernel_fetch_rejects_on_error(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        scope.fetch("/missing").catch(lambda e: seen.__setitem__("error", str(e)))

    kernel_page.run_script(script)
    run(kernel_browser, 500)
    assert "404" in seen["error"]


def test_kernel_dom_load_events_still_fire(kernel_browser, kernel_page):
    kernel_browser.network.host_simple(
        parse_url("https://app.example/app.js"), 5_000, body=lambda s: None
    )
    events = []

    def script(scope):
        el = scope.document.create_element("script")
        el.onload = lambda: events.append("load")
        el.onerror = lambda: events.append("error")
        scope.document.body.append_child(el)
        el.set_attribute("src", "/app.js")

    kernel_page.run_script(script)
    run(kernel_browser, 2_000)
    assert events == ["load"]


def test_kernel_window_messaging_loops_back(kernel_browser, kernel_page):
    seen = []

    def script(scope):
        scope.onmessage = lambda event: seen.append(event.data)
        scope.postMessage("ping")

    kernel_page.run_script(script)
    run(kernel_browser)
    assert seen == ["ping"]


def test_kernel_window_onmessage_trap_sealed(kernel_browser, kernel_page):
    outcome = {}

    def script(scope):
        try:
            scope.define_setter_trap("onmessage", lambda fn: None)
        except SecurityError:
            outcome["blocked"] = True

    kernel_page.run_script(script)
    run(kernel_browser)
    assert outcome.get("blocked")


def test_kernel_animation_progress_follows_kernel_clock(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        el = scope.document.create_element("div")
        scope.document.body.append_child(el)
        scope.animate(el, "left", 0.0, 1000.0, 1000.0)
        before = scope.getComputedStyle(el, "left")
        scope.busy_work(30.0)
        seen["delta"] = scope.getComputedStyle(el, "left") - before

    kernel_page.run_script(script)
    run(kernel_browser)
    assert seen["delta"] < 1.0  # 30ms of real work invisible


def test_kernel_video_clock_is_logical(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        video = scope.createVideo(60_000.0)
        video.play()
        before = video.current_time
        scope.busy_work(30.0)
        seen["delta"] = video.current_time - before

    kernel_page.run_script(script)
    run(kernel_browser)
    assert seen["delta"] < 0.005  # seconds


def test_kernel_storage_gate_blocks_private_mode(kernel_browser):
    private_page = kernel_browser.open_page("https://app.example/", private=True)
    outcome = {}

    def script(scope):
        try:
            scope.indexedDB.put("k", "v")
        except SecurityError:
            outcome["blocked"] = True

    private_page.run_script(script)
    run(kernel_browser)
    assert outcome.get("blocked")


def test_kernel_storage_allows_normal_mode(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        scope.indexedDB.put("k", "v")
        seen["value"] = scope.indexedDB.get("k")

    kernel_page.run_script(script)
    run(kernel_browser)
    assert seen["value"] == "v"


def test_kernel_shared_buffer_paced_to_grid(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        sab = scope.SharedArrayBuffer(8)
        sab.store(5)
        start = kernel_browser.sim.now
        sab.load()
        sab.load()
        seen["real_elapsed"] = kernel_browser.sim.now - start

    kernel_page.run_script(script)
    run(kernel_browser)
    # two loads paced to consecutive 1ms slots
    assert seen["real_elapsed"] >= ms(1)


def test_video_pause_freezes_current_time_like_native(either_browser):
    page = either_browser.open_page("https://app.example/")
    seen = {}

    def script(scope):
        video = scope.createVideo(60_000.0)
        video.pause()  # pausing a paused video is a no-op
        video.play()

        def pause_later():
            seen["played"] = video.current_time
            video.pause()
            seen["paused"] = video.current_time
            scope.setTimeout(lambda: seen.__setitem__("later", video.current_time), 100)

        scope.setTimeout(pause_later, 100)

    page.run_script(script)
    run(either_browser, until_ms=400)
    assert seen["played"] > 0.09  # seconds: playback ran ~100 ms
    assert seen["later"] == seen["paused"] >= seen["played"]


def test_shared_buffer_increment_activity_like_native(either_browser):
    page = either_browser.open_page("https://app.example/")
    seen = {}

    def script(scope):
        sab = scope.SharedArrayBuffer(8)
        sab.start_increment_activity(1000.0)
        scope.busy_work(5.0)
        sab.stop_increment_activity()
        first = sab.load()
        scope.busy_work(5.0)
        seen["loads"] = (first, sab.load())

    page.run_script(script)
    run(either_browser)
    # 5 ms at 1000 increments/ms, then frozen
    assert seen["loads"] == (5000, 5000)

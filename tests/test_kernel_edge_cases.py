"""Edge-case integration tests for the kernel and defense plumbing."""

import pytest

from repro.defenses import make_browser
from repro.errors import NullDerefError
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms


def test_kernel_fetch_abort_path(kernel_browser, kernel_page):
    """Abort through the kernel: user promise rejects, nothing dangles."""
    kernel_browser.network.host_simple(parse_url("https://app.example/slow"), 80_000)
    outcome = {}

    def script(scope):
        controller = scope.AbortController()
        scope.fetch("/slow", {"signal": controller.signal}).then(
            lambda r: outcome.__setitem__("result", "ok"),
            lambda e: outcome.__setitem__("result", type(e).__name__),
        )
        scope.setTimeout(lambda: controller.abort(), 3)

    kernel_page.run_script(script)
    kernel_browser.run(stop=lambda: "result" in outcome)
    assert outcome["result"] == "AbortError"


def test_kernel_late_dom_route_fallback(kernel_browser, kernel_page):
    """An element load started before kernel install still delivers."""
    kernel_browser.network.host_simple(parse_url("https://app.example/x.js"), 1_000,
                                       body=lambda s: None)
    events = []

    def script(scope):
        el = scope.document.create_element("script")
        el.onload = lambda: events.append("load")
        # simulate a pre-kernel load: bypass the start hook
        hook, kernel_page.load_start_hook = kernel_page.load_start_hook, None
        scope.document.body.append_child(el)
        el.set_attribute("src", "/x.js")
        kernel_page.load_start_hook = hook

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(2_000))
    assert events == ["load"]


def test_kernel_interval_coalesces_fast_native_fires(kernel_browser, kernel_page):
    """Native interval fires racing the paced dispatcher are dropped,
    not queued — count stays bounded."""
    count = {"n": 0}

    def script(scope):
        def tick():
            count["n"] += 1
            if count["n"] >= 20:
                scope.clearInterval(interval_id)

        interval_id = scope.setInterval(tick, 1)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(120))
    assert 10 <= count["n"] <= 21


def test_deterfox_preserves_native_onmessage_bug():
    """DeterFox's wrap must not mask CVE-2013-5602's native setter bug."""
    browser = make_browser("deterfox")  # vulnerable build underneath
    page = browser.open_page("https://x.example/")

    def script(scope):
        worker = scope.Worker(lambda ws: None)
        worker.terminate()
        scope.setTimeout(lambda: setattr(worker, "onmessage", lambda e: None), 5)

    page.run_script(script)
    with pytest.raises(NullDerefError):
        browser.run(until=ms(100))


def test_deterfox_worker_messages_on_slots():
    browser = make_browser("deterfox", with_bugs=False)
    page = browser.open_page("https://x.example/")
    arrivals = []

    def script(scope):
        def worker_main(ws):
            def flood():
                for _ in range(3):
                    ws.postMessage(1)
                ws.setTimeout(flood, 1)

            ws.setTimeout(flood, 1)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: arrivals.append(browser.sim.now)

    page.run_script(script)
    browser.run(until=ms(40))
    gaps = [arrivals[i + 1] - arrivals[i] for i in range(len(arrivals) - 1)]
    # deterministic 1ms message slots, not native bursts
    assert gaps and all(abs(gap - ms(1)) < ms(0.2) for gap in gaps)


def test_polyfill_import_scripts_runs_body():
    browser = make_browser("chromezero", with_bugs=False)
    from repro.runtime.network import Resource

    browser.network.host(
        Resource(
            parse_url("https://x.example/lib.js"), 500, "text/javascript",
            body=lambda ws: setattr(ws, "lib", True),
        )
    )
    page = browser.open_page("https://x.example/")
    seen = {}

    def script(scope):
        def worker_main(ws):
            ws.importScripts("/lib.js")
            ws.postMessage(getattr(ws, "lib", False))

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.__setitem__("lib", event.data)

    page.run_script(script)
    browser.run(until=ms(200))
    assert seen["lib"] is True


def test_polyfill_worker_close_and_state():
    browser = make_browser("chromezero", with_bugs=False)
    page = browser.open_page("https://x.example/")
    box = {}

    def script(scope):
        def worker_main(ws):
            ws.close()

        worker = scope.Worker(worker_main)
        box["worker"] = worker

    page.run_script(script)
    browser.run(until=ms(100))
    assert box["worker"].state == "terminated"


def test_kernel_worker_timers_deterministic(kernel_browser, kernel_page):
    seen = []

    def script(scope):
        def worker_main(ws):
            t0 = ws.performance.now()
            ws.setTimeout(lambda: ws.postMessage(ws.performance.now() - t0), 3)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.append(event.data)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(300))
    assert seen and seen[0] == pytest.approx(4.0, abs=1.01)


def test_second_page_has_independent_kernel_state(kernel_browser):
    page_a = kernel_browser.open_page("https://a.example/")
    page_b = kernel_browser.open_page("https://b.example/")
    readings = {}

    def script_a(scope):
        for _ in range(150):
            scope.performance.now()
        readings["a"] = scope.performance.now()

    def script_b(scope):
        readings["b"] = scope.performance.now()

    page_a.run_script(script_a)
    page_b.run_script(script_b)
    kernel_browser.run(until=ms(50))
    # page A's api ticks did not advance page B's kernel clock
    assert readings["b"] < readings["a"]

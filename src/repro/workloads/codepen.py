"""CodePen-style API-specific compatibility apps (§V-B1).

Twenty small applications — five per searched API (performance.now,
requestAnimationFrame, setTimeout/workers, CSS animation) — each of
which produces an observable report: *functional* outputs (element
counts, computed values, message payloads) and *timing* outputs (FPS,
measured durations).

A defense is "observably different" on an app when a functional output
changes, or a timing output deviates beyond a tolerance from the legacy
browser (the paper's student would notice a broken app or a clearly
wrong FPS counter; small timing drift passes).
"""

from __future__ import annotations

from contextlib import closing
from typing import Any, Callable, Dict, List, Tuple

from ..defenses import make_browser
from ..runtime.origin import parse_url

#: Relative deviation beyond which a timing output is "observable".
TIMING_TOLERANCE = 0.5


def _app_stopwatch(scope, report: Dict[str, Any], done: Callable) -> None:
    """performance.now #1: a stopwatch measuring a fixed work chunk."""
    start = scope.performance.now()
    scope.busy_work(12.0)
    report["timing:elapsed_ms"] = scope.performance.now() - start
    report["functional:buttons"] = 3
    done()


def _app_lap_timer(scope, report: Dict[str, Any], done: Callable) -> None:
    """performance.now #2: laps across async gaps."""
    laps: List[float] = []
    start = scope.performance.now()

    def lap(index: int) -> None:
        laps.append(scope.performance.now() - start)
        if index < 3:
            scope.setTimeout(lambda: lap(index + 1), 20)
        else:
            report["timing:last_lap_ms"] = laps[-1]
            report["functional:laps"] = len(laps)
            done()

    scope.setTimeout(lambda: lap(1), 20)


def _app_bench_widget(scope, report: Dict[str, Any], done: Callable) -> None:
    """performance.now #3: ops-per-ms micro benchmark widget."""
    start = scope.performance.now()
    operations = 0
    while scope.performance.now() - start < 5.0 and operations < 5_000:
        scope.busy_work(0.01)
        operations += 1
    report["timing:ops"] = operations
    report["functional:rendered"] = True
    done()


def _app_profiler(scope, report: Dict[str, Any], done: Callable) -> None:
    """performance.now #4: section profiler summing segment times."""
    total = 0.0
    for _ in range(5):
        t0 = scope.performance.now()
        scope.busy_work(2.0)
        total += scope.performance.now() - t0
    report["timing:total_ms"] = total
    report["functional:sections"] = 5
    done()


def _app_clock_display(scope, report: Dict[str, Any], done: Callable) -> None:
    """performance.now #5: Date-based clock widget."""
    first = scope.Date.now()

    def second_read() -> None:
        report["timing:tick_delta_ms"] = scope.Date.now() - first
        report["functional:format_ok"] = isinstance(first, int)
        done()

    scope.setTimeout(second_read, 50)


def _make_fps_app(frames: int, work_ms: float):
    def app(scope, report: Dict[str, Any], done: Callable) -> None:
        timestamps: List[float] = []

        def frame(timestamp: float) -> None:
            timestamps.append(timestamp)
            scope.busy_work(work_ms)
            if len(timestamps) < frames:
                scope.requestAnimationFrame(frame)
            else:
                duration = timestamps[-1] - timestamps[0]
                report["timing:fps"] = (frames - 1) / duration * 1000.0 if duration > 0 else 0.0
                report["functional:frames"] = frames
                done()

        scope.requestAnimationFrame(frame)

    return app


def _app_worker_pingpong(scope, report: Dict[str, Any], done: Callable) -> None:
    """Workers #1: request/response protocol."""
    def worker_main(ws) -> None:
        ws.onmessage = lambda event: ws.postMessage({"echo": event.data})

    worker = scope.Worker(worker_main)
    replies: List[Any] = []

    def on_message(event) -> None:
        replies.append(event.data)
        if len(replies) == 3:
            report["functional:replies"] = [r["echo"] for r in replies]
            worker.terminate()
            done()

    worker.onmessage = on_message
    for i in range(3):
        worker.postMessage(i)


def _app_worker_compute(scope, report: Dict[str, Any], done: Callable) -> None:
    """Workers #2: background computation result."""
    def worker_main(ws) -> None:
        def on_message(event) -> None:
            ws.busy_work(8.0)
            ws.postMessage(sum(event.data))

        ws.onmessage = on_message

    worker = scope.Worker(worker_main)
    worker.onmessage = lambda event: (
        report.__setitem__("functional:sum", event.data),
        done(),
    )
    worker.postMessage([1, 2, 3, 4])


def _app_timeout_sequencer(scope, report: Dict[str, Any], done: Callable) -> None:
    """Timers #1: ordered step sequencer."""
    steps: List[int] = []
    for i, delay in enumerate((5, 10, 15, 20)):
        scope.setTimeout((lambda n: lambda: steps.append(n))(i), delay)

    def finish() -> None:
        report["functional:order"] = steps
        done()

    scope.setTimeout(finish, 40)


def _app_interval_counter(scope, report: Dict[str, Any], done: Callable) -> None:
    """Timers #2: interval-driven counter stopped after a while."""
    state = {"count": 0}
    interval_id = scope.setInterval(lambda: state.__setitem__("count", state["count"] + 1), 10)

    def finish() -> None:
        scope.clearInterval(interval_id)
        report["timing:ticks"] = state["count"]
        report["functional:stopped"] = True
        done()

    scope.setTimeout(finish, 105)


def _app_debounce(scope, report: Dict[str, Any], done: Callable) -> None:
    """Timers #3: debounce util fires exactly once."""
    state = {"fired": 0, "timer": None}

    def trigger() -> None:
        if state["timer"] is not None:
            scope.clearTimeout(state["timer"])
        state["timer"] = scope.setTimeout(
            lambda: state.__setitem__("fired", state["fired"] + 1), 12
        )

    for delay in (0, 4, 8):
        scope.setTimeout(trigger, delay)

    def finish() -> None:
        report["functional:fired_once"] = state["fired"] == 1
        done()

    scope.setTimeout(finish, 60)


def _make_animation_app(duration_ms: float, sample_at_ms: float):
    def app(scope, report: Dict[str, Any], done: Callable) -> None:
        element = scope.document.create_element("div")
        scope.document.body.append_child(element)
        scope.animate(element, "left", 0.0, 100.0, duration_ms)

        def sample() -> None:
            progress = scope.getComputedStyle(element, "left")
            report["timing:progress"] = progress
            report["functional:animating"] = 0.0 <= progress <= 100.0
            done()

        scope.setTimeout(sample, sample_at_ms)

    return app


def _with_asset(app: Callable, asset_path: str) -> Callable:
    """Wrap an app so it also loads an image asset.

    A failed load is a *functional* difference — the class of breakage
    the paper attributes to the C++-patched defenses (loading errors of
    images, objects, background).
    """

    def wrapped(scope, report: Dict[str, Any], done: Callable) -> None:
        state = {"asset": None, "app": False}

        def maybe_done() -> None:
            if state["asset"] is not None and state["app"]:
                report["functional:asset_loaded"] = state["asset"]
                done()

        image = scope.document.create_element("img")
        image.onload = lambda: (state.__setitem__("asset", True), maybe_done())
        image.onerror = lambda: (state.__setitem__("asset", False), maybe_done())
        scope.document.body.append_child(image)
        image.set_attribute("src", asset_path)

        app(scope, report, lambda: (state.__setitem__("app", True), maybe_done()))

    return wrapped


def _app_video_progress(scope, report: Dict[str, Any], done: Callable) -> None:
    """Animation #5: video progress bar."""
    video = scope.createVideo(30_000.0)
    video.play()

    def sample() -> None:
        report["timing:position_s"] = video.current_time
        report["functional:playing"] = video.playing
        done()

    scope.setTimeout(sample, 80)


#: The 20 apps: name -> (API family, app callable).
CODEPEN_APPS: Dict[str, Tuple[str, Callable]] = {
    "stopwatch": ("performance.now", _app_stopwatch),
    "lap-timer": ("performance.now", _app_lap_timer),
    "bench-widget": ("performance.now", _app_bench_widget),
    "profiler": ("performance.now", _app_profiler),
    "clock-display": ("performance.now", _app_clock_display),
    "fps-meter": ("requestAnimationFrame", _make_fps_app(8, 1.0)),
    "particle-field": ("requestAnimationFrame",
                       _with_asset(_make_fps_app(10, 4.0), "/assets/sprites.png")),
    "parallax": ("requestAnimationFrame",
                 _with_asset(_make_fps_app(6, 2.0), "/assets/background.png")),
    "canvas-spinner": ("requestAnimationFrame",
                       _with_asset(_make_fps_app(8, 6.0), "/assets/spinner.png")),
    "game-loop": ("requestAnimationFrame", _make_fps_app(12, 3.0)),
    "worker-pingpong": ("workers", _app_worker_pingpong),
    "worker-compute": ("workers", _app_worker_compute),
    "timeout-sequencer": ("workers", _app_timeout_sequencer),
    "interval-counter": ("workers", _app_interval_counter),
    "debounce": ("workers", _app_debounce),
    "tween-linear": ("css-animation", _make_animation_app(200.0, 50.0)),
    "tween-long": ("css-animation", _make_animation_app(1000.0, 120.0)),
    "progress-bar": ("css-animation",
                     _with_asset(_make_animation_app(400.0, 90.0), "/assets/icon.png")),
    "loading-spinner": ("css-animation",
                        _with_asset(_make_animation_app(600.0, 40.0), "/assets/throbber.png")),
    "video-progress": ("css-animation", _app_video_progress),
}


ASSET_PATHS = (
    "/assets/sprites.png",
    "/assets/background.png",
    "/assets/spinner.png",
    "/assets/icon.png",
    "/assets/throbber.png",
)


def run_app(config: str, app_name: str, seed: int = 0) -> Dict[str, Any]:
    """Run one app under one configuration; returns its report."""
    with closing(make_browser(config, seed=seed, with_bugs=False)) as browser:
        page = browser.open_page("https://codepen.example/")
        for asset in ASSET_PATHS:
            browser.network.host_simple(
                parse_url(f"https://codepen.example{asset}"), 12_000, "image/png"
            )
        report: Dict[str, Any] = {}
        box: Dict[str, bool] = {}
        _family, app = CODEPEN_APPS[app_name]
        page.run_script(lambda scope: app(scope, report, lambda: box.__setitem__("done", True)))
        browser.run(stop=lambda: "done" in box)
        return report


def observable_difference(legacy: Dict[str, Any], under_defense: Dict[str, Any]) -> List[str]:
    """Fields a user would notice differing (see module docstring)."""
    differences: List[str] = []
    for key, legacy_value in legacy.items():
        value = under_defense.get(key)
        if key.startswith("functional:"):
            if value != legacy_value:
                differences.append(key)
        else:  # timing:
            if isinstance(legacy_value, (int, float)) and isinstance(value, (int, float)):
                base = abs(float(legacy_value))
                if base < 1e-9:
                    if abs(float(value)) > 1e-9:
                        differences.append(key)
                elif abs(float(value) - float(legacy_value)) / base > TIMING_TOLERANCE:
                    differences.append(key)
            elif value != legacy_value:
                differences.append(key)
    return differences


def compat_survey(
    config: str, baseline: str = "legacy-firefox", seed: int = 0
) -> Dict[str, List[str]]:
    """app -> list of observable differences for ``config``."""
    results: Dict[str, List[str]] = {}
    for app_name in CODEPEN_APPS:
        legacy = run_app(baseline, app_name, seed)
        defended = run_app(config, app_name, seed)
        results[app_name] = observable_difference(legacy, defended)
    return results


def apps_with_differences(survey: Dict[str, List[str]]) -> int:
    """Paper's headline number: apps out of 20 with observable diffs."""
    return sum(1 for diffs in survey.values() if diffs)

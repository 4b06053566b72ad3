"""Dromaeo-like JavaScript micro-benchmark suite (§V-A1).

Dromaeo scores many small tests — math, strings, data structures, DOM
operations.  Each test here runs a fixed workload against a page scope
and reports its *virtual-time* duration; the overhead of a defense is
the relative slowdown versus the legacy browser.

The interesting structure from the paper: most tests barely touch any
kernel-wrapped API (median overhead 0.30%), while the DOM-attribute test
crosses the kernel boundary on every operation and pays ~21%.
"""

from __future__ import annotations

from contextlib import closing
from typing import Callable, Dict

from ..analysis.stats import mean, median
from ..defenses import make_browser
from ..runtime.simtime import to_ms


def _test_math_cordic(scope) -> None:
    """Pure computation: no API calls at all."""
    for _ in range(40):
        scope.busy_work(0.05)


def _test_string_base64(scope) -> None:
    """String churn: pure computation plus occasional console logging."""
    for i in range(25):
        scope.busy_work(0.08)
        if i % 10 == 0:
            scope.console.log("chunk", i)


def _test_array_ops(scope) -> None:
    """Array manipulation: pure computation."""
    for _ in range(60):
        scope.busy_work(0.03)


def _test_regexp(scope) -> None:
    """Regex scanning: pure computation in larger chunks."""
    for _ in range(12):
        scope.busy_work(0.18)


def _test_dom_modify(scope) -> None:
    """createElement/appendChild churn (native DOM, not wrapped)."""
    document = scope.document
    for i in range(120):
        el = document.create_element("div")
        document.body.append_child(el)


def _test_dom_query(scope) -> None:
    """Tree traversal (native DOM)."""
    document = scope.document
    for i in range(30):
        el = document.create_element("span")
        document.body.append_child(el)
    for _ in range(40):
        document.get_elements_by_tag("span")
        scope.busy_work(0.01)


def _test_dom_attr(scope) -> None:
    """The kernel-boundary hammer: computed-style reads per operation.

    getComputedStyle is one of the wrapped APIs, so every iteration
    crosses into the kernel — the Dromaeo test the paper reports at
    ~21% overhead.
    """
    document = scope.document
    el = document.create_element("div")
    document.body.append_child(el)
    el.set_style("left", "10")
    for _ in range(400):
        scope.getComputedStyle(el, "left")


def _test_timers(scope) -> None:
    """setTimeout registration/cancellation churn (wrapped API)."""
    for _ in range(150):
        timer_id = scope.setTimeout(lambda: None, 50)
        scope.clearTimeout(timer_id)


DROMAEO_TESTS: Dict[str, Callable] = {
    "math-cordic": _test_math_cordic,
    "string-base64": _test_string_base64,
    "array-ops": _test_array_ops,
    "regexp-dna": _test_regexp,
    "dom-modify": _test_dom_modify,
    "dom-query": _test_dom_query,
    "dom-attr": _test_dom_attr,
    "timers": _test_timers,
}


def run_test(config: str, test_name: str, seed: int = 0) -> float:
    """Virtual-time duration (ms) of one test under one configuration."""
    with closing(make_browser(config, seed=seed, with_bugs=False)) as browser:
        page = browser.open_page("https://dromaeo.example/")
        box: Dict[str, float] = {}

        def runner(scope) -> None:
            start = browser.sim.now
            DROMAEO_TESTS[test_name](scope)
            box["duration_ms"] = to_ms(browser.sim.now - start)

        page.run_script(runner, label=f"dromaeo:{test_name}")
        browser.run(stop=lambda: "duration_ms" in box)
        return box["duration_ms"]


def overhead_report(
    config: str = "jskernel", baseline: str = "legacy-chrome", seed: int = 0
) -> Dict[str, object]:
    """Per-test overhead of ``config`` vs ``baseline`` + summary stats."""
    overheads: Dict[str, float] = {}
    for test_name in DROMAEO_TESTS:
        base = run_test(baseline, test_name, seed)
        with_defense = run_test(config, test_name, seed)
        overheads[test_name] = (with_defense - base) / base * 100.0
    values = list(overheads.values())
    return {
        "per_test": overheads,
        "average_pct": mean(values),
        "median_pct": median(values),
        "worst_test": max(overheads, key=lambda k: overheads[k]),
        "worst_pct": max(values),
    }

"""Compatibility harness (§V-B).

Three experiments:

* **API-specific test** (§V-B1): run the 20 CodePen-style apps under a
  defense and count observable differences vs the legacy browser.
* **DOM-similarity test** (§V-B2): load Alexa-like sites with and
  without JSKernel, serialise the DOM, and compare cosine similarity;
  sites with dynamic (ad) content fall below the 99% bar even between
  two legacy visits, which is the paper's control.
* **Week-long user test** (§V-B3): a scripted week of daily browsing
  under JSKernel, recording functional failures.  The three launch bugs
  the paper's student hit (worker path handling, Date arithmetic, worker
  location) exist here as regression scenarios that must stay green.
"""

from __future__ import annotations

from contextlib import closing
from typing import Any, Dict, List

from ..analysis.stats import cosine_similarity
from ..defenses import make_browser
from ..runtime.rng import hash_seed
from ..workloads.alexa import alexa_population
from ..workloads.codepen import CODEPEN_APPS, apps_with_differences, compat_survey, run_app
from ..workloads.sites import SiteDescription, load_site

SIMILARITY_BAR = 0.99


def _render_dom(config: str, site: SiteDescription, seed: int) -> str:
    with closing(make_browser(config, seed=seed, with_bugs=False)) as browser:
        page = browser.open_page(site.url)
        load_site(browser, site, page=page)
        browser.run(stop=lambda: page.loaded)
        # let post-load scripts settle a little
        browser.run(until=browser.sim.dispatch_time + 50_000_000)
        return page.document.serialize()


def dom_similarity_survey(
    site_count: int = 100, seed: int = 0, config: str = "jskernel"
) -> Dict[str, Any]:
    """The §V-B2 experiment.

    Returns per-site similarity for (legacy vs defense) and the control
    (legacy vs legacy, different visits), plus the headline fraction of
    sites above the 99% bar.
    """
    sites = alexa_population(site_count, seed)
    similarities: Dict[str, float] = {}
    control: Dict[str, float] = {}
    for index, site in enumerate(sites):
        s1 = _render_dom("legacy-chrome", site, hash_seed(seed, f"v1:{index}"))
        s2 = _render_dom(config, site, hash_seed(seed, f"v2:{index}"))
        similarities[site.host] = cosine_similarity(s1, s2)
        c1 = _render_dom("legacy-chrome", site, hash_seed(seed, f"c1:{index}"))
        c2 = _render_dom("legacy-chrome", site, hash_seed(seed, f"c2:{index}"))
        control[site.host] = cosine_similarity(c1, c2)
    above = sum(1 for v in similarities.values() if v >= SIMILARITY_BAR)
    below_hosts = [h for h, v in similarities.items() if v < SIMILARITY_BAR]
    # the paper's follow-up: sites below the bar should also differ
    # between two plain visits (dynamic content, not the defense)
    explained = sum(1 for h in below_hosts if control[h] < SIMILARITY_BAR)
    return {
        "similarities": similarities,
        "control": control,
        "fraction_above": above / max(len(sites), 1),
        "below_hosts": below_hosts,
        "below_explained_by_dynamic_content": explained,
    }


def api_compat_counts(seed: int = 0) -> Dict[str, int]:
    """§V-B1 headline: apps (of 20) with observable differences."""
    counts: Dict[str, int] = {}
    for config in ("jskernel", "deterfox", "fuzzyfox"):
        survey = compat_survey(config, baseline="legacy-firefox", seed=seed)
        counts[config] = apps_with_differences(survey)
    return counts


# ----------------------------------------------------------------------
# §V-B3: week-long user test + the three launch-bug regressions
# ----------------------------------------------------------------------

def _regression_worker_relative_path(browser, page) -> bool:
    """Overleaf bug: workers must resolve relative import paths."""
    from ..runtime.network import Resource
    from ..runtime.origin import parse_url

    browser.network.host(
        Resource(
            parse_url(f"{page.base_url.serialize()}assets/compile.js"),
            2_000,
            "text/javascript",
            body=lambda ws_scope: setattr(ws_scope, "compiled", True),
        )
    )
    box: Dict[str, bool] = {}

    def script(scope) -> None:
        def worker_main(ws) -> None:
            ws.importScripts("assets/compile.js")  # relative path
            ws.postMessage("pdf-ready" if getattr(ws, "compiled", False) else "failed")

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: box.__setitem__("result", event.data)

    page.run_script(script)
    browser.run(stop=lambda: "result" in box)
    return box["result"] == "pdf-ready"


def _regression_date_weekday(browser, page) -> bool:
    """Google Calendar bug: Date arithmetic must keep weekdays aligned."""
    box: Dict[str, bool] = {}

    def script(scope) -> None:
        day_ms = 86_400_000
        now = scope.Date.now()
        in_a_week = now + 7 * day_ms
        box["result"] = (in_a_week - now) % (7 * day_ms) == 0

    page.run_script(script)
    browser.run(stop=lambda: "result" in box)
    return box["result"]


def _regression_worker_location(browser, page) -> bool:
    """Google Maps bug: worker location must be the USER script's URL."""
    box: Dict[str, str] = {}

    def script(scope) -> None:
        def worker_main(ws) -> None:
            ws.postMessage(ws.location)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: box.__setitem__("location", event.data)

    page.run_script(script)
    browser.run(stop=lambda: "location" in box)
    # the bug was the location pointing at the KERNEL worker source
    return "kernel" not in box["location"].lower()


LAUNCH_BUG_REGRESSIONS = {
    "overleaf-worker-relative-path": _regression_worker_relative_path,
    "calendar-date-weekday": _regression_date_weekday,
    "maps-worker-location": _regression_worker_location,
}


def week_long_user_test(days: int = 7, seed: int = 0) -> Dict[str, Any]:
    """A scripted week of browsing under JSKernel.

    Each day runs every CodePen app and the three launch-bug regression
    scenarios; any functional failure is recorded as an issue.
    """
    issues: List[str] = []
    for day in range(days):
        day_seed = hash_seed(seed, f"day:{day}")
        for app_name in CODEPEN_APPS:
            try:
                report = run_app("jskernel", app_name, seed=day_seed)
            except Exception as exc:  # an app crashing is an issue
                issues.append(f"day {day}: {app_name} crashed: {exc}")
                continue
            for key, value in report.items():
                if key.startswith("functional:") and value in (False, None):
                    issues.append(f"day {day}: {app_name} broke {key}")
        for regression_name, regression in LAUNCH_BUG_REGRESSIONS.items():
            with closing(make_browser("jskernel", seed=day_seed, with_bugs=False)) as browser:
                page = browser.open_page("https://webapp.example/")
                try:
                    if not regression(browser, page):
                        issues.append(f"day {day}: regression {regression_name}")
                except Exception as exc:
                    issues.append(f"day {day}: regression {regression_name} crashed: {exc}")
    return {"days": days, "issues": issues}

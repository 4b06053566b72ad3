"""Raptor tp6-style loading tests (Table III).

Raptor measures when a page's *hero element* is displayed — modern sites
keep loading after ``onload`` via JavaScript, so the hero element lands
later than the load event.  Each subtest models one of the four
raptor-tp6-1 pages (Amazon, Facebook, Google, Youtube) with a post-onload
script that fetches and installs the hero image.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, List

from ..analysis.stats import mean, stdev
from ..defenses import make_browser
from ..runtime.network import Resource
from ..runtime.origin import parse_url
from ..runtime.rng import hash_seed
from ..runtime.simtime import to_ms
from .sites import SiteDescription, SiteResource, host_site

#: The four raptor-tp6-1 subtests with their relative weights.
SUBTEST_PROFILES = {
    "amazon": dict(scripts=5, script_kb=260, images=14, image_kb=70, tasks=9,
                   cost_ms=1.6, nodes=900, hero_kb=140, hero_work_ms=3.0),
    "facebook": dict(scripts=8, script_kb=420, images=18, image_kb=50, tasks=14,
                     cost_ms=2.2, nodes=1400, hero_kb=90, hero_work_ms=5.0),
    "google": dict(scripts=2, script_kb=140, images=4, image_kb=30, tasks=4,
                   cost_ms=0.8, nodes=300, hero_kb=40, hero_work_ms=1.0),
    "youtube": dict(scripts=9, script_kb=520, images=24, image_kb=90, tasks=18,
                    cost_ms=2.8, nodes=1800, hero_kb=260, hero_work_ms=8.0),
}


def raptor_site(name: str) -> SiteDescription:
    """Build the synthetic tp6 page for one subtest."""
    p = SUBTEST_PROFILES[name]
    resources = [
        SiteResource("script", f"/js/bundle{i}.js", p["script_kb"] * 1024 // p["scripts"])
        for i in range(p["scripts"])
    ]
    resources += [
        SiteResource("img", f"/img/asset{i}.png", p["image_kb"] * 1024)
        for i in range(p["images"])
    ]
    tasks = [((i + 1) * 6.0, p["cost_ms"]) for i in range(p["tasks"])]
    return SiteDescription(
        host=f"{name}.example",
        resources=resources,
        task_pattern=tasks,
        dom_nodes=p["nodes"],
    )


def measure_hero_time_ms(config: str, subtest: str, seed: int = 0) -> float:
    """One load: virtual ms from navigation to the hero element."""
    profile = SUBTEST_PROFILES[subtest]
    site = raptor_site(subtest)
    if config == "jskernel-firefox":
        browser = make_browser("jskernel", browser_name="firefox", seed=seed, with_bugs=False)
    else:
        browser = make_browser(config, seed=seed, with_bugs=False)
    with closing(browser):
        page = browser.open_page(site.url)
        host_site(browser.network, site)
        hero_url = parse_url(f"https://{site.host}/img/hero.png")
        browser.network.host(Resource(hero_url, profile["hero_kb"] * 1024, "image/png"))

        box: Dict[str, int] = {}

        def main_script(scope) -> None:
            document = scope.document
            for i in range(site.dom_nodes // 10):
                div = document.create_element("div")
                document.body.append_child(div)
            for resource in site.resources:
                el = document.create_element("script" if resource.kind == "script" else "img")
                document.body.append_child(el)
                el.set_attribute("src", resource.path)
            for delay_ms, cost_ms in site.task_pattern:
                scope.setTimeout((lambda c: lambda: scope.busy_work(c))(cost_ms), delay_ms)
            page.arm_load_event()

        def install_hero(scope) -> None:
            scope.busy_work(profile["hero_work_ms"])
            hero = scope.document.create_element("img")
            hero.onload = lambda: box.__setitem__("hero_ns", browser.sim.now)
            scope.document.body.append_child(hero)
            hero.set_attribute("src", "/img/hero.png")

        page.run_script(main_script, label=f"raptor:{subtest}")
        page.on_load(lambda: page.run_script(install_hero, label="hero-install"))
        browser.run(stop=lambda: "hero_ns" in box)
        return to_ms(box["hero_ns"])


def table3_rows(
    configs: List[str] = ("legacy-chrome", "jskernel", "legacy-firefox", "jskernel-firefox"),
    runs: int = 25,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """subtest -> config -> {mean, stdev} over runs (first run skipped)."""
    rows: Dict[str, Dict[str, Dict[str, float]]] = {}
    for subtest in SUBTEST_PROFILES:
        rows[subtest] = {}
        for config in configs:
            times = [
                measure_hero_time_ms(config, subtest, hash_seed(seed, f"{subtest}:{config}:{run}"))
                for run in range(runs)
            ][1:]  # skip the first (tab-open) run, as the paper does
            rows[subtest][config] = {"mean": mean(times), "stdev": stdev(times)}
    return rows

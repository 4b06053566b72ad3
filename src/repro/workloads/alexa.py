"""Alexa-Top-500-like population of synthetic sites (Figure 3).

The paper loads the Alexa Top 500 in seven browser configurations and
plots the loading-time CDF.  We generate a seeded population of sites in
three weight classes (roughly matching the head/torso/tail of popular
sites) and measure ``Page.load_time_ns`` per configuration.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, List, Optional

from ..defenses import make_browser
from ..runtime.rng import hash_seed
from ..runtime.simtime import to_ms
from .sites import SiteDescription, generate_site, load_site

#: Figure 3's browser configurations (defense registry names).
FIGURE3_CONFIGS = [
    "legacy-chrome",
    "jskernel",            # Chrome with JSKernel (browser-agnostic default)
    "chromezero",
    "legacy-firefox",
    "jskernel-firefox",    # Firefox with JSKernel
    "deterfox",
    "tor",
    "fuzzyfox",
]


def site_for_rank(rank: int, count: int, seed: int) -> SiteDescription:
    """The population member at ``rank``, derivable independently.

    Site generation is a pure function of ``(rank, count, seed)``, which
    is what lets the parallel engine regenerate a single site inside a
    worker instead of shipping the whole population across the process
    boundary.
    """
    if rank < count * 0.2:
        weight = "light"
    elif rank < count * 0.75:
        weight = "medium"
    else:
        weight = "heavy"
    return generate_site(f"site{rank:03d}.example", hash_seed(seed, str(rank)), weight)


def alexa_population(count: int = 500, seed: int = 0) -> List[SiteDescription]:
    """Generate the seeded site population."""
    return [site_for_rank(rank, count, seed) for rank in range(count)]


def _browser_for(config: str, seed: int):
    if config == "jskernel-firefox":
        browser = make_browser("jskernel", browser_name="firefox", seed=seed, with_bugs=False)
    else:
        browser = make_browser(config, seed=seed, with_bugs=False)
    return browser


def measure_load_time_ms(config: str, site: SiteDescription, seed: int = 0) -> float:
    """One visit: virtual ms from navigation to the load event."""
    with closing(_browser_for(config, seed)) as browser:
        page = browser.open_page(site.url)
        load_site(browser, site, page=page)
        browser.run(stop=lambda: page.loaded)
        # drain a little so defense-level deferred work is accounted
        return to_ms(page.load_time_ns)


def measure_site_average(
    config: str,
    site: SiteDescription,
    visits: int = 3,
    seed: int = 0,
) -> float:
    """One Figure 3 cell: a site's load time averaged over ``visits``."""
    times = [
        measure_load_time_ms(config, site, hash_seed(seed, f"{site.host}:{visit}"))
        for visit in range(visits)
    ]
    return sum(times) / len(times)


def figure3_series(
    site_count: int = 500,
    visits: int = 3,
    seed: int = 0,
    configs: Optional[List[str]] = None,
    parallel: Optional[int] = None,
    cache=None,
) -> Dict[str, List[float]]:
    """config name -> per-site average load times (for the CDF).

    Every ``(config, site)`` visit-average is an independent experiment
    cell.  The cell list is a *generator* fed to
    :meth:`~repro.harness.parallel.ExperimentEngine.stream`, so the
    sweep shards across ``parallel`` worker processes with only the
    in-flight window resident — the same path the population sweeps
    use — while results still arrive in submission order (per-config
    series keep their rank order).
    """
    from ..harness.parallel import Cell, ExperimentEngine

    configs = list(configs or FIGURE3_CONFIGS)
    cells = (
        Cell(
            "alexa",
            {"config": config, "rank": rank, "site_count": int(site_count),
             "visits": int(visits), "seed": seed},
        )
        for config in configs
        for rank in range(site_count)
    )
    series: Dict[str, List[float]] = {config: [] for config in configs}
    for result in ExperimentEngine(workers=parallel, cache=cache).stream(cells):
        if not result.ok:
            raise RuntimeError(f"alexa cell {result.cell.label()} failed: {result.error}")
        series[result.cell.params["config"]].append(result.payload["avg_ms"])
    return series

"""Synthetic site descriptions.

Real experiments used Alexa sites, raptor-tp6 page recordings and the
loopscan targets (google.com / youtube.com).  Offline, we generate
seeded synthetic equivalents: a :class:`SiteDescription` lists the
resources a site loads and the main-thread task pattern its scripts
produce.  Loading one exercises the network, parser, DOM and renderer;
its task pattern is what the loopscan attack profiles.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..runtime.network import Resource, SimNetwork
from ..runtime.origin import URL, parse_url
from ..runtime.rng import hash_seed


class SiteResource:
    """One subresource: kind decides parse/decode behaviour."""

    __slots__ = ("kind", "path", "size_bytes")

    def __init__(self, kind: str, path: str, size_bytes: int):
        self.kind = kind  # "script" | "img" | "css" | "xhr"
        self.path = path
        self.size_bytes = size_bytes


class SiteDescription:
    """A synthetic website."""

    def __init__(
        self,
        host: str,
        resources: List[SiteResource],
        task_pattern: List[Tuple[float, float]],
        dom_nodes: int = 300,
        post_onload_tasks: int = 0,
        uses_workers: bool = False,
        dynamic_fraction: float = 0.0,
    ):
        self.host = host
        self.resources = resources
        #: Main-thread script tasks as (delay_ms, cost_ms) pairs — the
        #: event-loop fingerprint loopscan profiles.
        self.task_pattern = task_pattern
        self.dom_nodes = dom_nodes
        #: Hero-element-style work continuing after onload (raptor).
        self.post_onload_tasks = post_onload_tasks
        self.uses_workers = uses_workers
        #: Fraction of DOM that is ads/dynamic content (compat §V-B2).
        self.dynamic_fraction = dynamic_fraction

    @property
    def url(self) -> str:
        """Site entry URL."""
        return f"https://{self.host}/"

    def total_bytes(self) -> int:
        """Sum of subresource sizes."""
        return sum(r.size_bytes for r in self.resources)


#: Event-loop task fingerprints for the two loopscan targets (delay, cost)
#: in ms.  Calibrated so the legacy Chrome "maximum event interval" lands
#: near Table II's 4.5 ms (google) and 8.8 ms (youtube).
GOOGLE_TASK_PATTERN: List[Tuple[float, float]] = [
    (2, 1.1), (5, 2.0), (9, 1.4), (13, 4.3), (19, 1.8), (24, 2.2),
    (30, 1.2), (36, 3.1), (43, 1.5), (50, 2.4),
]

YOUTUBE_TASK_PATTERN: List[Tuple[float, float]] = [
    (2, 2.6), (6, 4.1), (11, 8.6), (18, 3.2), (25, 6.9), (33, 2.8),
    (40, 8.1), (48, 5.2), (55, 3.6), (62, 7.4),
]


def loopscan_target(name: str) -> SiteDescription:
    """The loopscan victim sites (google / youtube)."""
    if name == "google":
        pattern = GOOGLE_TASK_PATTERN
    elif name == "youtube":
        pattern = YOUTUBE_TASK_PATTERN
    else:
        raise KeyError(f"unknown loopscan target {name!r}")
    return SiteDescription(
        host=f"{name}.com",
        resources=[SiteResource("script", "/app.js", 400_000)],
        task_pattern=pattern,
    )


#: Weight-class draw profiles shared by :func:`generate_site` and
#: :func:`site_stats` — both must consume the same seeded sequence.
SITE_PROFILES = {
    "light": dict(scripts=(2, 4), script_kb=(20, 120), images=(2, 8),
                  image_kb=(5, 60), tasks=(3, 8), cost=(0.2, 1.5), nodes=(80, 300)),
    "medium": dict(scripts=(3, 8), script_kb=(60, 400), images=(5, 20),
                   image_kb=(10, 150), tasks=(6, 16), cost=(0.3, 3.0), nodes=(200, 900)),
    "heavy": dict(scripts=(6, 14), script_kb=(150, 900), images=(10, 40),
                  image_kb=(20, 400), tasks=(10, 30), cost=(0.5, 6.0), nodes=(600, 2500)),
}


def generate_site(host: str, seed: int, weight: str = "medium") -> SiteDescription:
    """Seeded synthetic site in one of three weight classes."""
    rng = random.Random(hash_seed(seed, host))
    p = SITE_PROFILES[weight]
    resources: List[SiteResource] = []
    for i in range(rng.randint(*p["scripts"])):
        resources.append(
            SiteResource("script", f"/js/app{i}.js", rng.randint(*p["script_kb"]) * 1024)
        )
    for i in range(rng.randint(*p["images"])):
        resources.append(
            SiteResource("img", f"/img/pic{i}.png", rng.randint(*p["image_kb"]) * 1024)
        )
    tasks = []
    t = 0.0
    for _ in range(rng.randint(*p["tasks"])):
        t += rng.uniform(1, 12)
        tasks.append((t, rng.uniform(*p["cost"])))
    return SiteDescription(
        host=host,
        resources=resources,
        task_pattern=tasks,
        dom_nodes=rng.randint(*p["nodes"]),
        post_onload_tasks=rng.randint(0, 4),
        uses_workers=rng.random() < 0.2,
        dynamic_fraction=rng.random() * 0.15,
    )


def _randint_operands(lo: int, hi: int) -> Tuple[int, int, int]:
    """``(lo, n, n.bit_length())`` for ``randint(lo, hi)``, ``n = hi - lo + 1``."""
    n = hi - lo + 1
    return lo, n, n.bit_length()


#: Per weight class, the operands :func:`site_stats` draws with: the
#: ``randint`` ranges (scripts, script_kb, images, image_kb, tasks, nodes)
#: as :func:`_randint_operands`, then the task cost's ``(lo, hi - lo)``.
_STATS_DRAWS = {
    weight: tuple(
        _randint_operands(*p[key])
        for key in ("scripts", "script_kb", "images", "image_kb", "tasks", "nodes")
    ) + ((p["cost"][0], p["cost"][1] - p["cost"][0]),)
    for weight, p in SITE_PROFILES.items()
}


def site_stats(stream_seed: int, weight: str = "medium") -> Tuple[int, int, int, float]:
    """``(total_bytes, script_bytes, dom_nodes, task_cost_ms)`` of the site
    ``generate_site(host, seed, weight)`` builds, where ``stream_seed`` is
    the seed that seeds its ``Random``: ``hash_seed(seed, host)``.

    Consumes the identical seeded draw sequence but allocates nothing —
    the cheap summary closed-form load models need at population scale,
    where building tens of resource objects per page would dominate a
    100k-page sweep.  Each ``randint(lo, hi)`` is replayed as CPython
    computes it — ``lo + r`` for the first ``r = getrandbits(k)`` below
    ``n`` — and ``uniform(a, b)`` as ``a + (b - a) * random()``, without
    the three Python frames ``randint`` costs per call;
    ``tests/test_population.py`` checks the replay against
    :func:`generate_site` itself.
    """
    rng = random.Random(stream_seed)
    bits = rng.getrandbits
    rand = rng.random
    scripts, script_kb, images, image_kb, tasks, nodes, (cost_lo, cost_width) = (
        _STATS_DRAWS[weight]
    )

    lo, n, k = scripts
    r = bits(k)
    while r >= n:
        r = bits(k)
    lo_kb, n_kb, k_kb = script_kb
    script_bytes = 0
    for _ in range(lo + r):
        r = bits(k_kb)
        while r >= n_kb:
            r = bits(k_kb)
        script_bytes += (lo_kb + r) * 1024

    lo, n, k = images
    r = bits(k)
    while r >= n:
        r = bits(k)
    lo_kb, n_kb, k_kb = image_kb
    total_bytes = script_bytes
    for _ in range(lo + r):
        r = bits(k_kb)
        while r >= n_kb:
            r = bits(k_kb)
        total_bytes += (lo_kb + r) * 1024

    lo, n, k = tasks
    r = bits(k)
    while r >= n:
        r = bits(k)
    task_cost_ms = 0.0
    for _ in range(lo + r):
        rand()  # the task's delay draw; stats only need the cost
        task_cost_ms += cost_lo + cost_width * rand()

    lo, n, k = nodes
    r = bits(k)
    while r >= n:
        r = bits(k)
    return total_bytes, script_bytes, lo + r, task_cost_ms


def host_site(network: SimNetwork, site: SiteDescription) -> None:
    """Register the site's resources on the simulated network."""
    base = parse_url(site.url)
    for resource in site.resources:
        url = URL(base.origin, resource.path)
        network.host(Resource(url, resource.size_bytes, content_type=resource.kind))


def load_site(browser, site: SiteDescription, page=None):
    """Open and drive ``site`` in ``browser``; returns the page.

    The caller runs the simulation and reads ``page.load_time_ns``.
    """
    host_site(browser.network, site)
    if page is None:
        page = browser.open_page(site.url)

    def main_script(scope) -> None:
        document = scope.document
        # static DOM
        for i in range(site.dom_nodes // 10):
            div = document.create_element("div")
            div.text = f"block-{i}"
            document.body.append_child(div)
        # dynamic content (ads): differs on every visit, defense or not —
        # the control case of the paper's DOM-similarity experiment
        if site.dynamic_fraction > 0.10:
            ad_rng = browser.rng.stream(f"ads:{site.host}")
            for i in range(max(3, int(site.dom_nodes * site.dynamic_fraction) // 6)):
                ad = document.create_element("iframe")
                ad.text = f"ad-{ad_rng.randint(0, 10**9)}"
                document.body.append_child(ad)
        # subresources
        for resource in site.resources:
            if resource.kind == "script":
                el = document.create_element("script")
            elif resource.kind == "img":
                el = document.create_element("img")
            else:
                continue
            document.body.append_child(el)
            el.set_attribute("src", resource.path)
        # script task pattern
        for delay_ms, cost_ms in site.task_pattern:
            scope.setTimeout(
                (lambda cost: lambda: scope.busy_work(cost))(cost_ms), delay_ms
            )
        # arm the load event now that all initial loads are in flight
        page.arm_load_event()

    page.run_script(main_script, label=f"site:{site.host}")
    return page

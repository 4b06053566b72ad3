"""Tor Browser: coarse clocks plus onion-routed networking.

Tor Browser's timing defense is its famous 100 ms clamp on
``performance.now`` (exact grid edges — which is why clock-edge and every
implicit clock still work against it), and its dominant performance cost
is circuit latency, which puts it at the slow end of the paper's
Figure 3 CDF.
"""

from __future__ import annotations

from functools import partial

from ..runtime.clock import QuantizedClockPolicy
from ..runtime.simtime import ms
from .backend import DefenseBackend


class TorBrowser(DefenseBackend):
    """100 ms clock + high-latency network (Firefox variant)."""

    name = "tor"
    base_browser = "firefox"

    CLOCK_RESOLUTION_NS = ms(100)
    CIRCUIT_LATENCY_NS = ms(220)
    BANDWIDTH_BYTES_PER_MS = 600
    #: Security slider disables the JIT: script work slows ~40x,
    #: which is why Loophole measured event intervals of hundreds of
    #: milliseconds on Tor (Table II's 500/600 ms column).
    JS_COST_SCALE = 40.0

    def clock_policies(self, browser):
        """The famous 100 ms clamp (animation clocks stay exact)."""
        return partial(QuantizedClockPolicy, self.CLOCK_RESOLUTION_NS, name="tor-100ms"), None

    def prepare(self, browser) -> None:
        """Onion-route the network."""
        browser.network.base_latency_ns = self.CIRCUIT_LATENCY_NS
        browser.network.jitter_ns = ms(60)
        browser.network.bandwidth_bytes_per_ms = self.BANDWIDTH_BYTES_PER_MS

    def on_page(self, page) -> None:
        """The security slider disables the JIT on every page ..."""
        page.scope.js_cost_scale = self.JS_COST_SCALE

    def on_worker(self, agent) -> None:
        """... and in every worker."""
        agent.scope.js_cost_scale = self.JS_COST_SCALE

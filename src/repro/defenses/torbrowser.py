"""Tor Browser: coarse clocks plus onion-routed networking.

Tor Browser's timing defense is its famous 100 ms clamp on
``performance.now`` (exact grid edges — which is why clock-edge and every
implicit clock still work against it), and its dominant performance cost
is circuit latency, which puts it at the slow end of the paper's
Figure 3 CDF.
"""

from __future__ import annotations

from ..runtime.clock import QuantizedClockPolicy
from ..runtime.simtime import ms
from .backend import ClockSlot, DefenseBackend, ScopeSlot


class TorBrowser(DefenseBackend):
    """100 ms clock + high-latency network (Firefox variant)."""

    name = "tor"
    base_browser = "firefox"
    capabilities = frozenset({"clock", "scope"})

    CLOCK_RESOLUTION_NS = ms(100)
    CIRCUIT_LATENCY_NS = ms(220)
    BANDWIDTH_BYTES_PER_MS = 600
    #: Security slider disables the JIT: script work slows ~40x,
    #: which is why Loophole measured event intervals of hundreds of
    #: milliseconds on Tor (Table II's 500/600 ms column).
    JS_COST_SCALE = 40.0

    def clock_slot(self, browser) -> ClockSlot:
        """The famous 100 ms clamp (animation clocks stay exact)."""
        return ClockSlot(
            policy_factory=lambda: QuantizedClockPolicy(
                self.CLOCK_RESOLUTION_NS, name="tor-100ms"
            )
        )

    def scope_slot(self, browser) -> ScopeSlot:
        """Onion-route the network; security slider disables the JIT."""

        def shape_network(b) -> None:
            b.network.base_latency_ns = self.CIRCUIT_LATENCY_NS
            b.network.jitter_ns = ms(60)
            b.network.bandwidth_bytes_per_ms = self.BANDWIDTH_BYTES_PER_MS

        return ScopeSlot(
            browser_hook=shape_network,
            page_hook=lambda page: setattr(
                page.scope, "js_cost_scale", self.JS_COST_SCALE
            ),
            worker_hook=lambda agent: setattr(
                agent.scope, "js_cost_scale", self.JS_COST_SCALE
            ),
        )

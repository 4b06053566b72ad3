"""DeterFox (Cao et al., CCS 2017): the deterministic browser, in Firefox.

DeterFox enforces deterministic *cross-origin-observable* event timing
inside Firefox itself.  We model it by reusing the kernel's deterministic
scheduling machinery for asynchronous completions — timers, rAF, fetch,
subresource onload/onerror — compiled into the browser (there is no
policy layer, no worker thread manager, and no clock replacement):

* async deliveries land on deterministic slots → the cache, script
  parsing, image decoding, history sniffing, SVG filtering and floating
  point attacks are defeated, matching its paper;
* ``performance.now`` stays a real (quantised) clock and the window
  postMessage channel stays native → clock-edge, CSS-animation,
  video/WebVTT and loopscan channels remain, and none of the worker
  CVEs are addressed — which is where JSKernel goes beyond it;
* it is a Firefox *fork*: ``base_browser`` is pinned, mirroring the
  paper's point that it cannot simply be carried to Chrome/Edge.

The :mod:`repro.defenses.detbrowser` backend models the same authors'
earlier *Deterministic Browser* design (deterministic clocks); the
delivery machinery they share lives in
:mod:`repro.defenses.deterministic`.
"""

from __future__ import annotations

from ..kernel.policies.deterministic import DeterministicSchedulingPolicy
from ..kernel.policy import CompositePolicy, SchedulingGrid
from .backend import DefenseBackend, SchedulerSlot
from .deterministic import install_deterministic_delivery


class DeterFox(DefenseBackend):
    """Deterministic async delivery, Firefox-only, no kernel layer."""

    name = "deterfox"
    base_browser = "firefox"
    #: One composite page hook: deterministic delivery (scheduler), the
    #: worker-message re-routing (worker) and fork fragility (scope).
    capabilities = frozenset({"scheduler", "worker", "scope"})

    def __init__(self):
        self.grid = SchedulingGrid()
        self.policy = CompositePolicy([DeterministicSchedulingPolicy()])

    def scheduler_slot(self, browser) -> SchedulerSlot:
        """Hook pages; workers are left entirely native."""
        return SchedulerSlot(
            page_hook=self._on_page,
            covers=frozenset({"scheduler", "worker", "scope"}),
        )

    def _on_page(self, page) -> None:
        install_deterministic_delivery(
            page, self.policy, self.grid, label=f"deterfox:{page.origin.host}"
        )
        # a Firefox fork patched in C++: occasional loading errors (the
        # paper's §V-B1 explanation for DeterFox's app incompatibilities)
        page.load_failure_rate = 0.2
        # NOT installed (the JSKernel delta): kernel clocks, the window
        # self-postMessage channel shared with OTHER pages (loopscan's
        # probe — DeterFox's determinism is per-page), animation/media
        # clocks, SharedArrayBuffer, the kernel thread manager, and every
        # security policy.

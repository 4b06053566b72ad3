"""The browser facade: one simulated browser instance.

Owns the simulator, network, heap, history, storage and profile; creates
pages and (through pages) workers.  Defenses install themselves here —
swapping the clock-policy factory, adding page/worker hooks, or replacing
the worker implementation — before any page exists, exactly like an
extension that runs at ``document_start``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Set

from .clock import ClockPolicy, QuantizedClockPolicy
from .heap import SimHeap
from .network import SimNetwork
from .page import Page
from .profiles import BrowserProfile, chrome
from .rng import RngService
from .sharedbuf import SharedCounterBuffer
from .sharedmem import SharedHeap
from .simulator import Simulator
from .storage import IndexedDBStore
from .worker import WorkerAgent


#: Ambient hooks applied to every Browser at the end of construction
#: (after the defense installed).  Fault-injection plans use this to reach
#: browsers that experiment code builds internally (see
#: :func:`browser_intercept` and :mod:`repro.explore.faults`).
_active_interceptors: List[Callable[["Browser"], None]] = []


def current_interceptors() -> List[Callable[["Browser"], None]]:
    """The ambient browser interceptors (snapshot)."""
    return list(_active_interceptors)


@contextmanager
def browser_intercept(hook: Callable[["Browser"], None]):
    """Run ``hook(browser)`` on every browser built inside the block.

    The hook fires after the defense has installed itself, so it sees the
    final network/worker plumbing — the point where a fault plan can wire
    latency spikes, dropped fetches and worker crashes into the run.
    """
    _active_interceptors.append(hook)
    try:
        yield hook
    finally:
        _active_interceptors.remove(hook)


class Browser:
    """One browser process (simulated)."""

    def __init__(
        self,
        profile: Optional[BrowserProfile] = None,
        defense=None,
        seed: int = 0,
    ):
        self.profile = profile or chrome()
        self.sim = Simulator()
        self.rng = RngService(seed)
        self.heap = SimHeap(time_fn=lambda: self.sim.now, sim=self.sim)
        self.network = SimNetwork(
            self.rng.stream("network"),
            base_latency_ns=self.profile.network_base_latency_ns,
            bandwidth_bytes_per_ms=self.profile.network_bandwidth_bytes_per_ms,
        )
        self.idb = IndexedDBStore(
            self.sim,
            persist_private_writes=self.profile.has_bug("cve_2017_7843"),
        )
        #: Browser-wide shared-object heap (lazy arena: trace-silent until
        #: the first shared allocation).
        self.sharedmem = SharedHeap(self.sim, self.heap, self.profile)
        self.history: Set[str] = set()
        self.pages: List[Page] = []
        self.workers: List[WorkerAgent] = []
        #: Called with each new Page (defenses interpose here).
        self.page_hooks: List[Callable[[Page], None]] = []
        #: Called with each new WorkerAgent before its script runs.
        self.worker_hooks: List[Callable[[WorkerAgent], None]] = []
        #: Produces the ClockPolicy for each new scope (defense-controlled).
        self.clock_policy_factory: Callable[[], ClockPolicy] = (
            lambda: QuantizedClockPolicy(self.profile.clock_resolution_ns)
        )
        #: Clock policy behind CSS animations / media playback.  Exact by
        #: default: compositors interpolate animation progress at call
        #: time, and clamping performance.now does NOT clamp it (which is
        #: why Tor is still vulnerable to the animation clocks); only
        #: defenses that explicitly cover animation time override this.
        self.animation_clock_policy_factory: Callable[[], ClockPolicy] = ClockPolicy
        if defense is not None:
            defense.install(self)
        for hook in current_interceptors():
            hook(self)

    # ------------------------------------------------------------------
    def open_page(self, url: str = "https://example.com/", private: bool = False) -> Page:
        """Open a top-level page (runs defense page hooks)."""
        page = Page(self, url, private_mode=private)
        self.pages.append(page)
        return page

    def close(self) -> None:
        """Release every page's DOM once the browser's results are taken.

        Idempotent, and silent: no virtual time, no trace event.  The
        pages stay usable, each with an empty document.
        """
        for page in self.pages:
            page.document.release()

    def make_shared_buffer(self, size: int = 8) -> SharedCounterBuffer:
        """``new SharedArrayBuffer(...)`` used as a counter timer."""
        return SharedCounterBuffer(self.sim)

    # ------------------------------------------------------------------
    # history (history-sniffing substrate)
    # ------------------------------------------------------------------
    def visit(self, url: str) -> None:
        """Record ``url`` in the browsing history."""
        self.history.add(url)

    def is_visited(self, url: str) -> bool:
        """Style-recalc hook: is this link :visited?"""
        return url in self.history

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until, stop=stop, max_events=max_events)

"""Deterministic Browser (Cao et al.) as a defense backend.

The same authors' pre-DeterFox design answers the concurrency-attack
threat model with **deterministic clocks** rather than kernel-style
policy enforcement: every explicit clock a thread can read advances by a
fixed quantum per observable operation, so two runs that perform the
same operations read the same times — no physical timing difference
survives into script-visible state.  The backend changes three things:

* clocks — :class:`~repro.runtime.clock.DeterministicClockPolicy` for
  ``performance.now`` *and* the animation/media clock, one fresh policy
  per scope (= per thread, the paper's per-thread logical clocks);
  page ``Date`` reads are mapped onto the same quantum;
* each page — deterministic timer/rAF/fetch/subresource delivery and
  worker→main message re-routing, sharing DeterFox's machinery
  (:mod:`repro.defenses.deterministic`);
* each page and worker — a :class:`DetSharedMemPolicy` on the agent's
  shared memory, so counter reads (the SharedArrayBuffer counter and
  the atomic spin counter alike) observe the *reader's deterministic
  clock*, not the writer's true progress: the implicit SAB timer
  degrades into a pure function of the reader's read count.

What it deliberately does **not** do — and where it diverges from
JSKernel in the cube — is police the worker *lifecycle* or any other
CVE surface: the memory-safety rows stay exploitable, while both systems
defend the timing rows.  Unlike DeterFox (a Firefox fork), the clock
model is engine-agnostic, so ``base_browser`` is unpinned.
"""

from __future__ import annotations

from functools import partial

from ..kernel.policies.deterministic import DeterministicSchedulingPolicy
from ..kernel.policy import CompositePolicy, SchedulingGrid
from ..runtime.clock import DeterministicClockPolicy
from ..runtime.sharedmem import AccessPolicy as SharedMemAccessPolicy
from ..runtime.simtime import MS, us
from .backend import DefenseBackend
from .deterministic import install_deterministic_delivery


class DetBrowser(DefenseBackend):
    """Deterministic per-thread clocks + deterministic delivery."""

    name = "detbrowser"
    base_browser = None  # clock determinism is engine-agnostic

    #: Deterministic-clock advance per observable operation.
    QUANTUM_NS = us(10)

    def __init__(self):
        self.grid = SchedulingGrid()
        self.policy = CompositePolicy([DeterministicSchedulingPolicy()])

    def clock_policies(self, browser):
        """Per-thread deterministic clocks, animation/media included."""
        factory = partial(DeterministicClockPolicy, self.QUANTUM_NS)
        return factory, factory

    def on_page(self, page) -> None:
        """Deterministic async delivery on the page's main thread, then
        shared-counter reads mapped onto the reader's deterministic clock."""
        install_deterministic_delivery(
            page, self.policy, self.grid, label=f"detbrowser:{page.origin.host}"
        )
        # Date reads advance on the same deterministic quantum.
        page.scope.Date.policy = DeterministicClockPolicy(self.QUANTUM_NS)
        page.scope.sharedmem.set_policy(DetSharedMemPolicy(self.QUANTUM_NS))

    def on_worker(self, agent) -> None:
        """Workers' shared-counter reads go through their own clocks too."""
        agent.scope.sharedmem.set_policy(DetSharedMemPolicy(self.QUANTUM_NS))


class DetSharedMemPolicy(SharedMemAccessPolicy):
    """Shared-memory policy: counter reads become a metronome.

    The policy is installed per scope, so each agent carries its own
    deterministic read counts, one per counter object (the paper's
    per-thread logical clocks); a counter-style load — a
    SharedArrayBuffer ``load`` or an atomic spin counter's — reports the
    value the declared rate would have reached at the *reader's*
    deterministic time — read count × quantum — never the writer's true
    progress.  Two reads bracketing a secret-dependent computation
    therefore differ by exactly one quantum's worth of counts, whatever
    the computation cost.  Writers spin natively (the defense does not
    slow them down), and non-counter accesses pass through natively:
    DetBrowser polices clocks, not memory safety, which is why the
    GC-vs-mutator row stays exploitable under it.
    """

    name = "detbrowser"
    guards_gc = False

    def __init__(self, quantum_ns: int):
        self.quantum_ns = quantum_ns
        self._reads = {}

    def counter_value(self, cell, core, raw: int) -> int:
        reads = self._reads.get(cell, 0) + 1
        self._reads[cell] = reads
        activity = core.activity
        if activity is None:
            return raw
        det_ms = (reads * self.quantum_ns) / MS
        return activity.base + int(det_ms * activity.rate_per_ms)

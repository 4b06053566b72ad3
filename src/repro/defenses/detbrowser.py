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
* each page and worker — SharedArrayBuffer counters are wrapped so
  reads observe the *reader's deterministic clock*, not the writer's
  true progress: the implicit SAB timer degrades into a pure function
  of read count.

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
        SAB-counter reads mapped onto the reader's deterministic clock."""
        install_deterministic_delivery(
            page, self.policy, self.grid, label=f"detbrowser:{page.origin.host}"
        )
        # Date reads advance on the same deterministic quantum.
        page.scope.Date.policy = DeterministicClockPolicy(self.QUANTUM_NS)
        self._wrap_shared(page.scope)

    def on_worker(self, agent) -> None:
        """Workers' SAB-counter reads go through their own clocks too."""
        self._wrap_shared(agent.scope)

    def _wrap_shared(self, scope) -> None:
        self._wrap_shared_buffers(scope)
        api = getattr(scope, "sharedmem", None)
        if api is not None:
            api.set_policy(DetSharedMemPolicy(self.QUANTUM_NS))

    def _wrap_shared_buffers(self, scope) -> None:
        native_factory = scope.SharedArrayBuffer
        quantum_ns = self.QUANTUM_NS

        def det_shared_buffer(size: int = 8):
            return DetSharedBuffer(native_factory(size), quantum_ns)

        scope.SharedArrayBuffer = det_shared_buffer


class DetSharedMemPolicy(SharedMemAccessPolicy):
    """Shared-memory policy: counter reads become a metronome.

    The structured-runtime analogue of :class:`DetSharedBuffer`.  The
    policy is installed per scope, so each agent carries its own
    deterministic read counts (the paper's per-thread logical clocks);
    a counter-style load reports the value the declared spin rate would
    have reached at the *reader's* deterministic time — read count ×
    quantum — never the writer's true progress.  Non-counter accesses
    pass through natively: DetBrowser polices clocks, not memory safety,
    which is why the GC-vs-mutator row stays exploitable under it.
    """

    name = "detbrowser"
    guards_gc = False

    def __init__(self, quantum_ns: int):
        self.quantum_ns = quantum_ns
        self._reads = {}

    def counter_value(self, cell, core, raw: int) -> int:
        reads = self._reads.get(cell.addr, 0) + 1
        self._reads[cell.addr] = reads
        activity = core.activity
        if activity is None:
            return raw
        det_ms = (reads * self.quantum_ns) / MS
        return activity.base + int(det_ms * activity.rate_per_ms)


class DetSharedBuffer:
    """SharedArrayBuffer counter read through the deterministic clock.

    The writer side stays native (workers spin at their true rate — the
    defense does not slow them down), but every ``load`` reports the
    value the declared increment rate would have reached at the
    *reader's* deterministic time: ``reads × quantum``.  Two reads
    bracketing a secret-dependent computation therefore always differ by
    exactly one quantum's worth of counts, whatever the computation cost
    — the "fantastic timer" reads as a metronome.
    """

    def __init__(self, native, quantum_ns: int):
        self._native = native
        self.quantum_ns = quantum_ns
        self._reads = 0

    # -- reader side (deterministic) -----------------------------------
    def load(self) -> int:
        """Atomics.load observing deterministic, not true, elapsed time."""
        # charge the native access cost and emit the trace read, but
        # report the deterministic value instead of the true one
        self._native.load()
        self._reads += 1
        det_ms = (self._reads * self.quantum_ns) / MS
        activity = self._native.current_activity
        if activity is not None:
            return activity.base + int(det_ms * activity.rate_per_ms)
        return self._native.load_raw()

    # -- writer side (native fast path, like the kernel's wrapper) -----
    def store(self, value: int) -> None:
        """Atomics.store: delegate to the native counter."""
        self._native.store(value)

    def start_increment_activity(self, rate_per_ms: float) -> None:
        """Writer-side tight loop (native fast path)."""
        self._native.start_increment_activity(rate_per_ms)

    def stop_increment_activity(self) -> None:
        """Stop the writer loop."""
        self._native.stop_increment_activity()

    @property
    def incrementing(self) -> bool:
        """True while a writer activity is running."""
        return self._native.incrementing

"""ArrayBuffers, transferables and the SharedArrayBuffer timer.

Two distinct objects matter to the paper:

* :class:`SimArrayBuffer` — a transferable buffer backed by a native heap
  allocation.  Transferring detaches the sender's reference; the CVE
  scenarios that free a transferred buffer on worker termination
  (CVE-2014-1488) operate on its :class:`~repro.runtime.heap.NativePtr`.

* :class:`SharedCounterBuffer` — shared memory used as a fine-grained timer
  (Schwarz et al., "Fantastic Timers" [12]): a worker increments a counter
  in a tight loop while the main thread reads it.  We model the tight loop
  as a *rate activity*: once a worker declares it is spinning at rate ``r``,
  any read at virtual time ``t`` observes ``floor((t - t0) · r)`` plus the
  base value.  This keeps concurrent reads exact without simulating every
  increment.

The counter is an object of the shared-memory runtime: it is created on
the browser's :class:`~repro.runtime.sharedmem.heap.SharedHeap`, and its
``load``/``store`` pass the heap's one access gate.  A read is therefore
interposed by the :class:`~repro.runtime.sharedmem.api.AccessPolicy` of
the agent performing it (a worker's load is charged to the worker, not
to the page that created the buffer); a defense that mediates shared
memory needs no SAB-specific wrapper.  The writer's increment activity
is not interposed.  The counter math is
:class:`~repro.runtime.sharedmem.atomics.AtomicCounterCore`; the event
stream is pinned byte-for-byte by the golden digests in
``tests/golden/sharedbuf_digests.json``.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..trace import state_access
from .heap import NativePtr, SimHeap
from .sharedmem.atomics import ELEMENT_ACCESS_COST, AtomicCounterCore
from .sharedmem.heap import SharedHeap


class SimArrayBuffer:
    """A (transferable) ArrayBuffer backed by the simulated native heap."""

    def __init__(self, heap: SimHeap, byte_length: int, label: str = "ArrayBuffer"):
        self.byte_length = byte_length
        self.label = label
        self._ptr: NativePtr = heap.alloc(bytearray(min(byte_length, 4096)), "ArrayBuffer")
        self.detached = False

    @property
    def ptr(self) -> NativePtr:
        """The backing native allocation (used by CVE scenarios)."""
        return self._ptr

    def detach(self) -> None:
        """Neuter this reference (structured-clone transfer)."""
        self.detached = True

    def transferred_view(self) -> "SimArrayBuffer":
        """The receiver-side object after a transfer.

        Shares the same backing allocation (that is the point of
        transferring) under a fresh, non-detached reference.
        """
        view = SimArrayBuffer.__new__(SimArrayBuffer)
        view.byte_length = self.byte_length
        view.label = f"{self.label}/transferred"
        view._ptr = self._ptr
        view.detached = False
        return view

    def read(self, index: int = 0, cve: str = "") -> int:
        """Read one byte; enforces detach + memory-safety semantics."""
        if self.detached:
            raise SimulationError(f"{self.label}: read from detached ArrayBuffer")
        data = self._ptr.deref(cve=cve)
        return data[index % len(data)] if data else 0

    def write(self, index: int, value: int, cve: str = "") -> None:
        """Write one byte; enforces detach + memory-safety semantics."""
        if self.detached:
            raise SimulationError(f"{self.label}: write to detached ArrayBuffer")
        data = self._ptr.deref(cve=cve)
        if data:
            data[index % len(data)] = value & 0xFF


class SharedCounterBuffer:
    """SharedArrayBuffer used as a monotone counter / fine-grained timer.

    An object of the shared-memory runtime: ``load`` and ``store`` pass
    :meth:`SharedHeap.access <repro.runtime.sharedmem.heap.SharedHeap.access>`,
    so the policy of the agent performing the access interposes it, as
    it does for every shared cell.  The buffer is not an arena cell: the
    shared GC never frees it.
    """

    #: Kernel crossing family, trace state family, and GC liveness, as
    #: the heap's access gate reads them off a shared cell.
    api = "sab"
    kind = "sab"
    freed = False

    def __init__(self, heap: SharedHeap, label: str = "SharedArrayBuffer"):
        self.heap = heap
        self.sim = heap.sim
        self.label = label
        self.obj_id = f"sab:{label}#{self.sim.next_object_seq('sab')}"
        self._core = AtomicCounterCore(0)

    # ------------------------------------------------------------------
    # writer side (worker; not interposed)
    # ------------------------------------------------------------------
    def start_increment_activity(self, rate_per_ms: float) -> None:
        """Declare a tight increment loop starting now at ``rate_per_ms``."""
        state_access(self.sim, self.obj_id, "write", "sab", access="increment_start")
        if self._core.activity is not None:
            self.stop_increment_activity()
        self._core.start_rate(self.sim.now, rate_per_ms)

    def stop_increment_activity(self) -> None:
        """End the current increment loop, freezing the counter."""
        if self._core.activity is None:
            return
        state_access(self.sim, self.obj_id, "write", "sab", access="increment_stop")
        self._core.stop_rate(self.sim.now)

    def store(self, value: int) -> None:
        """Atomics.store: set the counter (stops any running activity)."""
        self.heap.access(self, "write", "store", ELEMENT_ACCESS_COST)
        self.stop_increment_activity()
        self._core.set_value(value)

    # ------------------------------------------------------------------
    # reader side (any thread)
    # ------------------------------------------------------------------
    def load(self) -> int:
        """Atomics.load: read the counter at the caller's local time."""
        policy = self.heap.access(self, "read", "load", ELEMENT_ACCESS_COST)
        raw = self._core.value_at(self.sim.now)
        if policy is not None:
            return policy.counter_value(self, self._core, raw)
        return raw

    @property
    def incrementing(self) -> bool:
        """True while a rate activity is running."""
        return self._core.activity is not None

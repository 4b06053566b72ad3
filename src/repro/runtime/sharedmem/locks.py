"""Shared locks: mutual exclusion with owner tracking and trace events.

Blocking is continuation-passing (a run-to-completion simulated thread
cannot spin): ``acquire(callback)`` runs the callback synchronously when
the lock is free, otherwise parks it FIFO and the releaser posts a grant
task to the waiter's loop.  Ownership transfers at release time (the
grant is reserved), so a barging third thread can never observe the lock
free between a release and the woken waiter's dispatch.

Trace protocol — the events the happens-before builder consumes
(:mod:`repro.analysis.hbgraph`):

* ``lock.acquired`` — emitted on the acquiring thread once it owns the
  lock (inline or in the grant task);
* ``lock.release`` — emitted on the releasing thread; the next
  ``lock.acquired`` on the same object gets a happens-before edge from
  it, which is what makes the race detector lock-set aware;
* ``lock.acquire`` — a blocked request (diagnostic only).

Blocked acquisitions feed the heap's wait-for graph; a cycle at block
time is recorded as a deadlock (``sharedmem.deadlock`` instant +
``SharedHeap.deadlocks``) and the parked continuations simply never run —
the simulation drains, which is how the deadlock scenario terminates.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ...errors import SimulationError
from ..task import TaskSource
from .heap import LOCK_OP_COST, SharedHeap


class SharedLock:
    """A mutex over shared state, with owner tracking."""

    def __init__(self, heap: SharedHeap, label: str = "lock"):
        self.heap = heap
        self.label = label
        #: Allocation order — the canonical order lock-ordering policies
        #: enforce acquisition in.
        self.seq = heap.sim.next_object_seq("lock")
        self.trace_label = f"lock:{label}#{self.seq}"
        #: Owning thread name, or None.
        self.owner: Optional[str] = None
        self._waiters: List[Tuple[str, object, Optional[Callable[[], None]]]] = []

    # ------------------------------------------------------------------
    def acquire(self, callback: Optional[Callable[[], None]] = None) -> bool:
        """Take the lock; run ``callback`` under it (now or when granted).

        Returns True when the lock was acquired synchronously.
        """
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        self._check_policy(thread)
        if self.owner is None and not self._waiters:
            self._grant(thread)
            if callback is not None:
                callback()
            return True
        binding = heap.bindings.get(thread)
        if binding is None:
            raise SimulationError(
                f"blocking acquire of {self.trace_label} outside an attached agent"
            )
        heap.sync_event(
            "lock.acquire", self.trace_label, {"owner": self.owner or ""}
        )
        self._waiters.append((thread, binding.loop, callback))
        heap.note_blocked(thread, self)
        return False

    def try_acquire(self) -> bool:
        """Non-blocking acquire."""
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        self._check_policy(thread)
        if self.owner is None and not self._waiters:
            self._grant(thread)
            return True
        return False

    def release(self) -> None:
        """Release; ownership passes FIFO to the next waiter (if any)."""
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        if self.owner != thread:
            raise SimulationError(
                f"{self.trace_label}: release by {thread!r} but owner is {self.owner!r}"
            )
        heap.sync_event("lock.release", self.trace_label)
        self.owner = None
        heap.note_released(thread, self)
        if not self._waiters:
            return
        next_thread, loop, callback = self._waiters.pop(0)
        # reservation: the waiter owns the lock from this instant
        self.owner = next_thread
        heap.note_acquired(next_thread, self)
        heap.note_unblocked(next_thread)
        loop.post(
            self._granted,
            next_thread,
            callback,
            source=TaskSource.SCRIPT,
            label=f"lock:grant:{self.label}",
        )

    @property
    def held(self) -> bool:
        """True while some thread owns the lock."""
        return self.owner is not None

    # ------------------------------------------------------------------
    def _check_policy(self, thread: str) -> None:
        heap = self.heap
        policy = heap.policy_for_current()
        if policy is not None:
            policy.before_lock(heap.sim, self, thread, heap.held_locks.get(thread, ()))

    def _grant(self, thread: str) -> None:
        self.owner = thread
        self.heap.note_acquired(thread, self)
        self.heap.sync_event("lock.acquired", self.trace_label)

    def _granted(self, thread: str, callback: Optional[Callable[[], None]]) -> None:
        self.heap.sync_event("lock.acquired", self.trace_label)
        if callback is not None:
            callback()


class SharedRwLock:
    """A readers-writer lock (FIFO, writer-exclusive).

    Grant order is strictly FIFO; consecutive queued readers are granted
    together.  Only write releases create the ``lock.release`` sync point
    (reader releases emit ``lock.release_read``, which the happens-before
    builder deliberately ignores: readers do not order each other).
    Deadlock tracking covers writer ownership only.
    """

    def __init__(self, heap: SharedHeap, label: str = "rwlock"):
        self.heap = heap
        self.label = label
        self.seq = heap.sim.next_object_seq("lock")
        self.trace_label = f"rwlock:{label}#{self.seq}"
        self.writer: Optional[str] = None
        self.readers: List[str] = []
        self._waiters: List[Tuple[str, str, object, Optional[Callable[[], None]]]] = []

    @property
    def owner(self) -> Optional[str]:
        """The writer, for wait-for-graph purposes."""
        return self.writer

    # ------------------------------------------------------------------
    def acquire_read(self, callback: Optional[Callable[[], None]] = None) -> bool:
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        if self.writer is None and not self._waiters:
            self.readers.append(thread)
            heap.sync_event("lock.acquired", self.trace_label, {"mode": "read"})
            if callback is not None:
                callback()
            return True
        self._enqueue("read", thread, callback)
        return False

    def acquire_write(self, callback: Optional[Callable[[], None]] = None) -> bool:
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        policy = heap.policy_for_current()
        if policy is not None:
            policy.before_lock(heap.sim, self, thread, heap.held_locks.get(thread, ()))
        if self.writer is None and not self.readers and not self._waiters:
            self.writer = thread
            heap.note_acquired(thread, self)
            heap.sync_event("lock.acquired", self.trace_label, {"mode": "write"})
            if callback is not None:
                callback()
            return True
        self._enqueue("write", thread, callback)
        heap.note_blocked(thread, self)
        return False

    def release_read(self) -> None:
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        if thread not in self.readers:
            raise SimulationError(f"{self.trace_label}: release_read by non-reader {thread!r}")
        self.readers.remove(thread)
        heap.sync_event("lock.release_read", self.trace_label)
        self._drain()

    def release_write(self) -> None:
        heap = self.heap
        heap.sim.consume(LOCK_OP_COST)
        thread = heap.current_thread()
        if self.writer != thread:
            raise SimulationError(
                f"{self.trace_label}: release_write by {thread!r} but writer is {self.writer!r}"
            )
        heap.sync_event("lock.release", self.trace_label)
        self.writer = None
        heap.note_released(thread, self)
        self._drain()

    # ------------------------------------------------------------------
    def _enqueue(self, mode: str, thread: str, callback) -> None:
        heap = self.heap
        binding = heap.bindings.get(thread)
        if binding is None:
            raise SimulationError(
                f"blocking acquire of {self.trace_label} outside an attached agent"
            )
        heap.sync_event(
            "lock.acquire", self.trace_label, {"mode": mode, "owner": self.writer or ""}
        )
        self._waiters.append((mode, thread, binding.loop, callback))

    def _drain(self) -> None:
        """Grant the FIFO head (and, for reads, every consecutive read)."""
        heap = self.heap
        while self._waiters:
            mode, thread, loop, callback = self._waiters[0]
            if mode == "write":
                if self.readers or self.writer is not None:
                    return
                self._waiters.pop(0)
                self.writer = thread
                heap.note_acquired(thread, self)
                heap.note_unblocked(thread)
                loop.post(
                    self._granted, thread, "write", callback,
                    source=TaskSource.SCRIPT, label=f"lock:grant:{self.label}",
                )
                return
            if self.writer is not None:
                return
            self._waiters.pop(0)
            self.readers.append(thread)
            loop.post(
                self._granted, thread, "read", callback,
                source=TaskSource.SCRIPT, label=f"lock:grant:{self.label}",
            )

    def _granted(self, thread: str, mode: str, callback) -> None:
        self.heap.sync_event("lock.acquired", self.trace_label, {"mode": mode})
        if callback is not None:
            callback()

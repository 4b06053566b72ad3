"""Per-scope shared-memory namespace and the defense policy protocol.

Every page main thread and every worker gets ``scope.sharedmem``, a
:class:`SharedMemAPI` bound to that agent's event loop.  Construction
attaches the agent to the browser-wide :class:`SharedHeap` — silently
(no cost, no trace events), so browsers that never touch shared memory
produce byte-identical traces.

Defenses interpose by installing an :class:`AccessPolicy` on the scope's
API (``scope.sharedmem.set_policy(...)``); the one policy covers the
shared objects and the SharedArrayBuffer counter.  The policy is bound to the
*agent*, not the object: shared objects cross threads freely, so the
policy that applies to an access is the one installed for the thread
performing it.  A scope with no policy installed accesses shared memory
natively — which is precisely how clock-fuzzing defenses measurably fail
against the counter-thread clock.
"""

from __future__ import annotations

from typing import Optional

from ...errors import SimulationError
from .atomics import AtomicCell
from .clockthread import CounterThreadClock
from .heap import SharedHeap
from .locks import SharedLock, SharedRwLock
from .objects import SharedArray, SharedDict, SharedObject


class AccessPolicy:
    """Defense interposition on shared-memory accesses (pass-through base)."""

    name = "base"
    #: True when installing this policy must force safe stop-the-world GC
    #: (the kernel mediates the collection entry point).
    guards_gc = False

    def before_access(self, sim, cell, op: str, access: str) -> None:
        """Called before every data access by the bound agent (pacing).

        ``cell`` is a :class:`SharedCell` or the flat SharedArrayBuffer
        counter; both carry ``obj_id``, ``kind`` and ``api``.
        """

    def before_lock(self, sim, lock, thread: str, held) -> None:
        """Called before every lock acquisition by the bound agent.

        ``held`` is the sequence of locks the thread already owns; an
        ordering-enforcing policy raises ``SecurityError`` here to veto
        out-of-order acquisition (deadlock prevention by construction).
        """

    def counter_value(self, cell, core, raw: int) -> int:
        """Transform a counter-style read of ``cell`` (clock-defense hook)."""
        return raw


class SharedMemAPI:
    """The ``scope.sharedmem`` namespace for one agent."""

    def __init__(self, heap: SharedHeap, loop):
        self.heap = heap
        self.binding = heap.attach(loop)

    # ------------------------------------------------------------------
    # factories (created objects are rooted to this agent)
    # ------------------------------------------------------------------
    def Dict(self, label: str = "dict") -> SharedDict:
        """Allocate a shared dictionary rooted to this agent."""
        obj = SharedDict.create(self.heap, label)
        self.binding.add_root(obj.cell)
        return obj

    def Array(self, label: str = "array") -> SharedArray:
        """Allocate a shared array rooted to this agent."""
        obj = SharedArray.create(self.heap, label)
        self.binding.add_root(obj.cell)
        return obj

    def Atomic(self, label: str = "atomic") -> AtomicCell:
        """Allocate an atomic cell rooted to this agent."""
        atom = AtomicCell(self.heap, label)
        self.binding.add_root(atom.cell)
        return atom

    def CounterClock(self, label: str = "counter-clock") -> CounterThreadClock:
        """Allocate a counter-thread clock rooted to this agent."""
        clock = CounterThreadClock(self.heap, label)
        self.binding.add_root(clock.cell)
        return clock

    def Lock(self, label: str = "lock") -> SharedLock:
        """Create a shared mutex (locks are not garbage-collected)."""
        return SharedLock(self.heap, label)

    def RwLock(self, label: str = "rwlock") -> SharedRwLock:
        """Create a shared readers-writer lock."""
        return SharedRwLock(self.heap, label)

    # ------------------------------------------------------------------
    # root management (the borrow/adopt protocol)
    # ------------------------------------------------------------------
    def adopt(self, obj) -> None:
        """Root a borrowed reference to this agent (a read access)."""
        cell = self._cell_of(obj)
        self.heap.access(cell, "read", "adopt")
        self.binding.add_root(cell)

    def drop(self, obj) -> None:
        """Un-root an object from this agent; may free it immediately."""
        cell = self._cell_of(obj)
        if self.binding.drop_root(cell):
            if cell.refcount == 0 and not cell.freed and not self.heap._rooted(cell):
                self.heap._free_cell(cell, "drop")

    def _cell_of(self, obj):
        cell = getattr(obj, "cell", None)
        if cell is None:
            raise SimulationError(f"not a shared object: {obj!r}")
        return cell

    # ------------------------------------------------------------------
    # collection + policy
    # ------------------------------------------------------------------
    def collect(self, force_safe: bool = False, reason: str = "explicit") -> dict:
        """Trigger a shared-GC cycle from this agent."""
        return self.heap.gc(force_safe=force_safe, reason=reason)

    def set_policy(self, policy: Optional[AccessPolicy]) -> None:
        """Install this agent's defense access policy."""
        self.binding.policy = policy
        if policy is not None and policy.guards_gc:
            self.heap.gc_guard = policy.name

    def stats(self) -> dict:
        """Heap-level statistics (tests and telemetry)."""
        heap = self.heap
        return {
            "live_cells": heap.live_cells,
            "gc_runs": heap.gc_runs,
            "deadlocks": len(heap.deadlocks),
            "leaked_cells": len(heap.leaked_cells),
            "agents": len(heap.bindings),
        }


__all__ = ["AccessPolicy", "SharedMemAPI", "SharedObject"]

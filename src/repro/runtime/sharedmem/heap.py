"""The shared-object heap: arena, refcounts and the stop-the-world GC.

A :class:`SharedHeap` is one per-browser arena of :class:`SharedCell`
slots carved out of the simulated native heap (one ``NativePtr``
allocation backs the whole arena, allocated lazily so browsers that never
touch shared memory leave the native address stream untouched).  Every
agent (page main thread, worker) that wants shared objects *attaches*,
yielding an :class:`AgentBinding` that carries the agent's GC root set
and its defense :class:`~repro.runtime.sharedmem.api.AccessPolicy`.

Memory management is Myenk-style two-tier:

* **refcounts** — object-to-object references are counted; a cell whose
  count hits zero while no binding roots it is freed immediately;
* **mark/sweep GC** — explicit ``gc()`` marks from every binding's roots
  and sweeps the rest, pausing all attached agents for the duration
  (``gc.pause`` spans) — stop-the-world, unless a bug flag says
  otherwise:

  - ``shm_gc_thread_roots`` (legacy profiles): the collector only scans
    the *triggering* agent's root set and sweeps asynchronously without
    pausing anyone — the GC-vs-mutator race.  Cells rooted by another
    agent get condemned and a later read raises
    :class:`~repro.errors.UseAfterCollectError`.
  - ``shm_gc_cycle_leak`` (legacy profiles): the sweeper trusts
    refcounts and skips unreachable cells whose count is non-zero, so
    cycle garbage survives forever (``sharedmem.leak`` instants — the
    ``shared-leak`` fuzz oracle).

  A defense policy with ``guards_gc = True`` (JSKernel) forces the safe
  stop-the-world path regardless of the bug flags: the kernel mediates
  the collection entry point, so the buggy native fast path is never
  reached.

Every data access funnels through :meth:`access`: defense policy first
(pacing — or nothing, measurably), then cost, then a
``trace.state_access`` instant, then the liveness check.  Lock and
wait/notify *synchronisation* events go through :meth:`sync_event`
instead — they order accesses rather than being accesses, and emitting
them as ``state.access`` would make the race detector flag the lock
itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...errors import UseAfterCollectError
from ...trace import state_access
from ..task import TaskSource

#: Virtual-time costs (ns) of shared-heap operations.
ALLOC_COST = 120
DICT_OP_COST = 60
ARRAY_OP_COST = 50
LOCK_OP_COST = 50

#: Stop-the-world pause: base plus a per-live-cell mark/sweep cost.
GC_PAUSE_BASE = 50_000
GC_PAUSE_PER_CELL = 2_000

#: Delay between a buggy (non-STW) collection's mark and its sweep — the
#: window the GC-vs-mutator scenario races in.
UNSAFE_SWEEP_DELAY = 200_000


class SharedCell:
    """One slot in the shared arena."""

    #: Kernel crossing family (the flat SAB counter's is ``"sab"``).
    api = "shm"

    __slots__ = ("addr", "obj_id", "kind", "label", "payload", "refcount", "freed", "marked")

    def __init__(self, addr: int, obj_id: str, kind: str, label: str, payload):
        self.addr = addr
        self.obj_id = obj_id
        self.kind = kind
        self.label = label
        self.payload = payload
        #: Object-to-object references only; roots are tracked per binding.
        self.refcount = 0
        self.freed = False
        self.marked = False


class AgentBinding:
    """One attached agent: its loop, GC roots and access policy."""

    __slots__ = ("thread", "loop", "roots", "policy")

    def __init__(self, thread: str, loop):
        self.thread = thread
        self.loop = loop
        self.roots: List[SharedCell] = []
        self.policy = None

    def add_root(self, cell: SharedCell) -> None:
        self.roots.append(cell)

    def drop_root(self, cell: SharedCell) -> bool:
        if cell in self.roots:
            self.roots.remove(cell)
            return True
        return False


class SharedHeap:
    """The browser-wide shared-object arena."""

    def __init__(self, sim, native_heap, profile):
        self.sim = sim
        self.native_heap = native_heap
        self.profile = profile
        self.cells: Dict[int, SharedCell] = {}
        self.bindings: Dict[str, AgentBinding] = {}
        #: Name of the policy forcing safe GC, or None (see module doc).
        self.gc_guard: Optional[str] = None
        #: Blocked lock acquisitions: waiter thread -> lock (wait-for graph).
        self.lock_waits: Dict[str, object] = {}
        #: Locks currently owned, per thread (ordering policies read this).
        self.held_locks: Dict[str, List[object]] = {}
        #: Deadlocks detected so far (read by the deadlock attack/oracle).
        self.deadlocks: List[dict] = []
        #: Unreachable-but-surviving cells per gc (shared-leak accounting).
        self.leaked_cells: List[SharedCell] = []
        self.gc_runs = 0
        self._arena = None  # lazy: see module docstring
        self._addrs = 0

    # ------------------------------------------------------------------
    # attachment / thread resolution
    # ------------------------------------------------------------------
    def attach(self, loop) -> AgentBinding:
        """Attach one agent (idempotent per loop name)."""
        binding = self.bindings.get(loop.name)
        if binding is None:
            binding = AgentBinding(loop.name, loop)
            self.bindings[loop.name] = binding
        return binding

    def current_thread(self) -> str:
        """The simulated thread performing the current operation."""
        frame = self.sim.current_frame
        return frame.thread_name if frame is not None else self.sim.native_context

    def binding_for_current(self) -> Optional[AgentBinding]:
        """The attached agent whose loop is running the current frame."""
        return self.bindings.get(self.current_thread())

    def policy_for_current(self):
        binding = self.binding_for_current()
        return binding.policy if binding is not None else None

    # ------------------------------------------------------------------
    # allocation / refcounts
    # ------------------------------------------------------------------
    def alloc_cell(self, kind: str, label: str, payload) -> SharedCell:
        """Allocate one cell (charged + traced as a write access)."""
        if self._arena is None:
            self._arena = self.native_heap.alloc(self, "SharedHeapArena")
        self._addrs += 1
        obj_id = f"shm:{label}#{self.sim.next_object_seq('shm')}"
        cell = SharedCell(self._addrs, obj_id, kind, label, payload)
        self.cells[cell.addr] = cell
        policy = self.policy_for_current()
        if policy is not None:
            policy.before_access(self.sim, cell, "write", "alloc")
        self.sim.consume(ALLOC_COST)
        state_access(self.sim, obj_id, "write", kind, access="alloc")
        return cell

    def retain(self, cell: SharedCell) -> None:
        """Add one object-to-object reference."""
        cell.refcount += 1

    def release(self, cell: SharedCell) -> None:
        """Drop one object-to-object reference; rc 0 + unrooted frees now."""
        if cell.freed:
            return
        if cell.refcount > 0:
            cell.refcount -= 1
        if cell.refcount == 0 and not self._rooted(cell):
            self._free_cell(cell, "refcount")

    def _rooted(self, cell: SharedCell) -> bool:
        return any(cell in binding.roots for binding in self.bindings.values())

    def _free_cell(self, cell: SharedCell, via: str) -> None:
        cell.freed = True
        state_access(
            self.sim, cell.obj_id, "write", cell.kind,
            access="free", detail={"via": via},
        )
        # break outgoing references so transitively dead cells free too
        payload, cell.payload = cell.payload, None
        for child in _referenced_cells(payload):
            self.release(child)
        self.cells.pop(cell.addr, None)

    # ------------------------------------------------------------------
    # the access gate
    # ------------------------------------------------------------------
    def access(self, cell: SharedCell, op: str, access: str, cost: int = DICT_OP_COST):
        """Policy → cost → trace → liveness, for one shared data access.

        Returns the policy that interposed (or None), so counter-style
        reads can apply its value transform.
        """
        sim = self.sim
        policy = self.policy_for_current()
        if policy is not None:
            policy.before_access(sim, cell, op, access)
        sim.consume(cost)
        state_access(sim, cell.obj_id, op, cell.kind, access=access)
        if cell.freed:
            raise UseAfterCollectError(
                f"use-after-collect: {cell.obj_id} ({access}) was swept by the shared GC"
            )
        return policy

    def sync_event(self, name: str, obj_id: str, extra: Optional[dict] = None) -> None:
        """Emit one synchronisation instant (lock/wait-notify traffic)."""
        tracer = self.sim.tracer
        if not tracer.enabled:
            return
        args = {"obj": obj_id}
        if extra:
            args.update(extra)
        tracer.instant(
            self.sim.trace_pid,
            self.current_thread(),
            name,
            self.sim.now,
            cat="sync",
            args=args,
        )

    # ------------------------------------------------------------------
    # deadlock bookkeeping (locks call these)
    # ------------------------------------------------------------------
    def note_blocked(self, thread: str, lock) -> None:
        """Record ``thread`` blocking on ``lock``; detect wait-for cycles."""
        self.lock_waits[thread] = lock
        cycle = self._find_cycle(thread, lock)
        if cycle is None:
            return
        record = {
            "time_ns": self.sim.now,
            "cycle": " -> ".join(cycle),
            "threads": cycle[::2],
            "locks": cycle[1::2],
        }
        self.deadlocks.append(record)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                self.sim.trace_pid,
                self.current_thread(),
                "sharedmem.deadlock",
                self.sim.now,
                cat="sync",
                args={"cycle": record["cycle"]},
            )
            tracer.metrics.counter("sharedmem.deadlocks").inc()

    def note_unblocked(self, thread: str) -> None:
        self.lock_waits.pop(thread, None)

    def note_acquired(self, thread: str, lock) -> None:
        self.held_locks.setdefault(thread, []).append(lock)

    def note_released(self, thread: str, lock) -> None:
        held = self.held_locks.get(thread)
        if held and lock in held:
            held.remove(lock)

    def _find_cycle(self, thread: str, lock) -> Optional[List[str]]:
        path = [thread]
        current = lock
        seen = set()
        while current is not None and current not in seen:
            seen.add(current)
            owner = current.owner
            path.append(current.trace_label)
            if owner is None:
                return None
            if owner == thread:
                path.append(owner)
                return path
            path.append(owner)
            current = self.lock_waits.get(owner)
        return None

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(self, force_safe: bool = False, reason: str = "explicit") -> dict:
        """Collect unreachable cells; returns the sweep statistics.

        Safe mode (the default on fixed browsers, and forced whenever a
        ``guards_gc`` policy is installed) marks from every binding's
        roots and sweeps under a stop-the-world pause.  Buggy mode (the
        ``shm_gc_thread_roots`` flag) marks from the triggering agent's
        roots only and sweeps asynchronously, pausing nobody.
        """
        self.gc_runs += 1
        unsafe = (
            self.profile.has_bug("shm_gc_thread_roots")
            and not force_safe
            and self.gc_guard is None
        )
        leaky = (
            self.profile.has_bug("shm_gc_cycle_leak")
            and not force_safe
            and self.gc_guard is None
        )
        live_before = len(self.cells)

        # mark
        for cell in self.cells.values():
            cell.marked = False
        if unsafe:
            binding = self.binding_for_current()
            root_sets = [binding.roots] if binding is not None else []
        else:
            root_sets = [b.roots for b in self.bindings.values()]
        stack = [cell for roots in root_sets for cell in roots]
        while stack:
            cell = stack.pop()
            if cell.marked or cell.freed:
                continue
            cell.marked = True
            stack.extend(_referenced_cells(cell.payload))

        condemned: List[SharedCell] = []
        leaked: List[SharedCell] = []
        for cell in list(self.cells.values()):
            if cell.marked:
                continue
            if leaky and cell.refcount > 0:
                leaked.append(cell)
            else:
                condemned.append(cell)

        stats = {
            "mode": "unsafe" if unsafe else "stw",
            "reason": reason,
            "live_before": live_before,
            "condemned": len(condemned),
            "leaked": len(leaked),
            "roots": sum(len(r) for r in root_sets),
        }

        if unsafe:
            # no pauses; the sweep lands later, racing every mutator
            self.sim.schedule(
                self.sim.now + UNSAFE_SWEEP_DELAY,
                lambda: self._sweep(condemned, "gc-unsafe"),
                label="sharedmem:gc-sweep",
            )
        else:
            self._pause_all(live_before)
            self._sweep(condemned, "gc")

        if leaked:
            self.leaked_cells.extend(leaked)
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.instant(
                    self.sim.trace_pid,
                    self.current_thread(),
                    "sharedmem.leak",
                    self.sim.now,
                    cat="gc",
                    args={"cells": len(leaked), "objs": [c.obj_id for c in leaked]},
                )
                tracer.metrics.counter("sharedmem.leaked_cells").inc(len(leaked))

        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                self.sim.trace_pid,
                self.current_thread(),
                "gc.sweep",
                self.sim.now,
                cat="gc",
                args=dict(stats),
            )
            tracer.metrics.counter("sharedmem.gc.runs").inc()
        return stats

    def _pause_all(self, live_before: int) -> None:
        """Stop the world: every attached agent loses ``pause_ns``."""
        pause_ns = GC_PAUSE_BASE + GC_PAUSE_PER_CELL * live_before
        sim = self.sim
        current = self.current_thread()
        start = sim.now
        sim.consume(pause_ns)
        tracer = sim.tracer
        if tracer.enabled:
            tracer.complete(
                sim.trace_pid, current, "gc.pause", start, sim.now,
                cat="gc", args={"agent": current, "trigger": True},
            )
        for binding in self.bindings.values():
            if binding.thread == current or binding.loop.stopped:
                continue
            binding.loop.post(
                self._pause_agent,
                binding.thread,
                pause_ns,
                source=TaskSource.SCRIPT,
                label="gc:pause",
            )

    def _pause_agent(self, thread: str, pause_ns: int) -> None:
        sim = self.sim
        start = sim.now
        sim.consume(pause_ns)
        tracer = sim.tracer
        if tracer.enabled:
            tracer.complete(
                sim.trace_pid, thread, "gc.pause", start, sim.now,
                cat="gc", args={"agent": thread, "trigger": False},
            )

    def _sweep(self, condemned: List[SharedCell], via: str) -> None:
        for cell in condemned:
            if not cell.freed:
                self._free_cell(cell, via)

    # ------------------------------------------------------------------
    @property
    def live_cells(self) -> int:
        """Number of unswept cells (tests assert bounded live sets)."""
        return len(self.cells)


def _referenced_cells(payload) -> List[SharedCell]:
    """Cells referenced from a dict/list payload (one level: values)."""
    if isinstance(payload, dict):
        values = payload.values()
    elif isinstance(payload, list):
        values = payload
    else:
        return []
    refs: List[SharedCell] = []
    for value in values:
        cell = getattr(value, "cell", None)
        if isinstance(cell, SharedCell):
            refs.append(cell)
    return refs

"""Happens-before graphs over trace captures.

Builds a partial order of trace events for one run (one ``pid``) from the
causal structure the runtime and kernel record:

* **program order** — events attributed to the same simulated thread (or
  the same ``native:...`` dispatch context) are totally ordered;
* **message edges** — a ``postMessage`` instant happens-before the
  ``message.receive`` carrying the same ``flow`` id;
* **promise edges** — a cross-thread ``promise.settle`` happens-before
  every ``promise.reaction`` carrying its ``flow`` id;
* **worker lifecycle** — ``worker.spawn`` joins the spawning thread's row
  to the worker's row; ``worker.terminate`` orders only within the
  *terminating* thread (the worker row keeps running tasks that causally
  precede the termination, so chaining it there would invent edges);
* **kernel lifecycle** — the ``b``/``n``/``e`` legs of one kernel event
  span (registration → confirmation → dispatch/cancel) are chained, and
  each leg also orders within the thread that performed it (``ctx``);
* **lock edges** — a ``lock.release`` happens-before the next
  ``lock.acquired`` on the same lock object (ownership is reserved for
  the woken waiter at release time, so the pairing is exact); this is
  what makes the race detector lock-set aware: accesses inside two
  critical sections of one lock are always ordered;
* **wait/notify edges** — ``atomics.notify`` happens-before every
  ``atomics.wake`` it causes, via the notify's fresh ``flow`` id (the
  generic flow machinery below).

Soundness rests on an emission-order invariant of the tracer: within one
row, emission order is program order, and every cross-row edge recorded
by the runtime points forward in emission order.  The builder therefore
makes a single pass over ``tracer.events`` and, for a candidate pair
``(i, j)`` with ``i`` emitted first, only ``happens_before(i, j)`` ever
needs to be queried.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

#: Instant names that join the row named by ``args["ctx"]`` *in addition
#: to* (spawn) or *instead of* (terminate) their display row.
_SPAWN_NAMES = ("worker.spawn", "kthread.spawn")
_TERMINATE_NAMES = ("worker.terminate", "kthread.terminate")


class HBEvent:
    """One trace event plus its position in the happens-before graph."""

    __slots__ = ("index", "raw", "preds")

    def __init__(self, index: int, raw: dict):
        self.index = index
        self.raw = raw
        #: Indices of immediate happens-before predecessors.
        self.preds: List[int] = []

    @property
    def name(self) -> str:
        return self.raw.get("name", "")

    @property
    def thread(self) -> str:
        return self.raw.get("thread", "")

    @property
    def ts(self) -> int:
        return self.raw.get("ts", 0)

    @property
    def args(self) -> dict:
        return self.raw.get("args", {})

    @property
    def end_ts(self) -> int:
        """Span end for ``X`` events; ``ts`` otherwise."""
        return self.ts + self.raw.get("dur", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HBEvent #{self.index} {self.name!r} on {self.thread!r} @{self.ts}>"


class HBGraph:
    """The happens-before relation for one run of a capture."""

    def __init__(self, pid: int, events: List[HBEvent]):
        self.pid = pid
        self.events = events
        self._reach_cache: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    def happens_before(self, i: int, j: int) -> bool:
        """True when event ``i`` causally precedes event ``j``.

        Requires ``i < j`` to be meaningful (the emission-order invariant
        guarantees no edge ever points backward).
        """
        if i == j:
            return False
        return i in self._ancestors(j)

    def ordered(self, i: int, j: int) -> bool:
        """True when ``i`` and ``j`` are ordered either way."""
        lo, hi = (i, j) if i < j else (j, i)
        return self.happens_before(lo, hi)

    def _ancestors(self, j: int) -> Set[int]:
        cached = self._reach_cache.get(j)
        if cached is not None:
            return cached
        seen: Set[int] = set()
        stack = list(self.events[j].preds)
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(self.events[k].preds)
        self._reach_cache[j] = seen
        return seen

    # ------------------------------------------------------------------
    def edge_count(self) -> int:
        """Total number of direct edges (debug/reporting)."""
        return sum(len(e.preds) for e in self.events)


def _chain(rows: Dict[str, int], row: str, node: HBEvent) -> None:
    """Append ``node`` to ``row``'s program-order chain."""
    prev = rows.get(row)
    if prev is not None and prev != node.index:
        node.preds.append(prev)
    rows[row] = node.index


def build_hb_graph(events: List[dict], pid: Optional[int] = None) -> HBGraph:
    """Build the happens-before graph for one run.

    ``events`` is ``tracer.events`` (or a parsed Chrome trace's
    ``traceEvents`` in original order); ``pid`` selects the run, defaulting
    to the first pid that appears.
    """
    if pid is None:
        for raw in events:
            if raw.get("ph") != "M":
                pid = raw["pid"]
                break
        else:
            return HBGraph(0, [])

    nodes: List[HBEvent] = []
    rows: Dict[str, int] = {}  # row name -> index of last event on it
    flow_heads: Dict[int, int] = {}  # flow id -> index of the cause event
    span_tails: Dict[Tuple[str, int], int] = {}  # (row, span id) -> last leg
    lock_releases: Dict[str, int] = {}  # lock obj -> index of last release

    for raw in events:
        if raw.get("pid") != pid or raw.get("ph") == "M":
            continue
        node = HBEvent(len(nodes), raw)
        nodes.append(node)
        name = node.name
        args = node.args
        ctx = args.get("ctx", "")

        if raw.get("cat") == "kernel-event":
            # one kernel event's b/n/e legs form a chain of their own,
            # plus each leg orders within the thread that performed it
            key = (node.thread, raw.get("id", 0))
            prev = span_tails.get(key)
            if prev is not None:
                node.preds.append(prev)
            span_tails[key] = node.index
            if ctx:
                _chain(rows, ctx, node)
            continue

        if name in _TERMINATE_NAMES:
            # orders only in the terminator's context: the worker row may
            # still run tasks that causally precede the terminate call
            _chain(rows, ctx or node.thread, node)
            continue

        if name in _SPAWN_NAMES:
            _chain(rows, ctx or node.thread, node)
            _chain(rows, node.thread, node)
        else:
            _chain(rows, node.thread, node)

        if name == "lock.acquired":
            prev_release = lock_releases.get(args.get("obj", ""))
            if prev_release is not None:
                node.preds.append(prev_release)
        elif name == "lock.release":
            lock_releases[args.get("obj", "")] = node.index

        flow = args.get("flow", 0)
        if flow:
            cause = flow_heads.get(flow)
            if cause is None:
                flow_heads[flow] = node.index
            elif cause != node.index:
                node.preds.append(cause)

    return HBGraph(pid, nodes)


def run_pids(events: List[dict]) -> List[int]:
    """All run pids present in a capture, in first-appearance order."""
    seen: List[int] = []
    for raw in events:
        if raw.get("ph") == "M":
            continue
        pid = raw.get("pid")
        if pid not in seen:
            seen.append(pid)
    return seen

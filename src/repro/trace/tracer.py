"""The :class:`Tracer`: structured events on the virtual timeline.

Every event is stamped with a **virtual-time** timestamp in integer
nanoseconds (the :class:`~repro.runtime.simulator.Simulator` clock) and a
``(run, thread)`` coordinate: a *run* is one simulator instance (attacks
spin up a fresh browser per trial, so a matrix capture contains many
runs), a *thread* is one simulated JavaScript thread or kernel row within
it.  Chrome-trace export maps runs to ``pid`` and threads to ``tid``.

Zero overhead when disabled
---------------------------

Instrumentation sites follow the pattern::

    tracer = self.sim.tracer
    if tracer.enabled:
        tracer.instant(...)

so a disabled tracer costs one attribute load and one branch per site and
allocates nothing.  The module-level :data:`NULL_TRACER` is permanently
disabled and shared by every simulator created outside a capture.

Determinism
-----------

Emitted events must never include wall-clock values: two captures of
the same seeded scenario are required to serialise byte-identically.
Run ids, thread ids and async-span ids are allocated per-tracer, in
first-use order, which is itself deterministic.  Process-global
counters cannot leak into an event by construction: ``src/repro`` has
none.  Objects take ids from their run's
:meth:`~repro.runtime.simulator.Simulator.next_object_seq`, and queue
entries take tie-breaks from the push counter of the queue holding
them.  ``tests/test_process_history.py`` guards both the rule (an AST
scan) and its effect (identical digests in any process history).

Storage
-------

Events are appended as compact uniform tuples
``(ph, pid, thread, name, cat, ts, extra, args)`` — ``extra`` is the
duration for ``X`` rows and the span id for ``b``/``n``/``e`` rows — and
materialised into the Chrome-trace-shaped dicts consumers expect only
when :attr:`events` is first read past the buffered point.  Emission on
the hot path therefore allocates one tuple instead of one dict, and
exports stay byte-identical (tests/test_trace_buffer.py pins this with
golden digests).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry


class Tracer:
    """Collects trace events and owns the capture's metrics registry."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: Compact event rows (see module docstring); read via ``events``.
        self._buffer: List[tuple] = []
        #: Materialised prefix of ``_buffer`` as Chrome-trace-shaped dicts.
        self._events: List[dict] = []
        self.metrics = MetricsRegistry()
        #: run pid -> label ("run-1", ...), insertion-ordered.
        self.runs: Dict[int, str] = {}
        self._next_pid = 1
        self._next_span_id = 1
        self._next_flow_id = 1

    # ------------------------------------------------------------------
    # runs and threads
    # ------------------------------------------------------------------
    def register_run(self, label: str = "") -> int:
        """Allocate a pid for one simulator instance."""
        pid = self._next_pid
        self._next_pid += 1
        self.runs[pid] = label or f"run-{pid}"
        return pid

    def next_span_id(self) -> int:
        """Allocate a tracer-local id for an async (b/n/e) span."""
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    def next_flow_id(self) -> int:
        """Allocate a tracer-local id linking a cause event to its effects.

        Flow ids pair cross-thread event endpoints — a ``postMessage``
        instant with its ``message.receive``, a ``promise.settle`` with its
        reactions — so the happens-before builder can add the edge.  The
        first event emitted with a given flow id is the cause; every later
        event carrying it is an effect.
        """
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    # ------------------------------------------------------------------
    # event emission (callers must check ``enabled`` first)
    # ------------------------------------------------------------------
    def complete(
        self,
        pid: int,
        thread: str,
        name: str,
        start_ns: int,
        end_ns: int,
        cat: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """A span with known start and end (Chrome phase ``X``)."""
        dur = end_ns - start_ns
        self._buffer.append(
            ("X", pid, thread, name, cat, start_ns, dur if dur > 0 else 0, args or {})
        )

    def instant(
        self,
        pid: int,
        thread: str,
        name: str,
        ts_ns: int,
        cat: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """A point event (Chrome phase ``i``, thread-scoped)."""
        self._buffer.append(("i", pid, thread, name, cat, ts_ns, None, args or {}))

    def counter(
        self,
        pid: int,
        thread: str,
        name: str,
        ts_ns: int,
        values: dict,
        cat: str = "",
    ) -> None:
        """A sampled counter track (Chrome phase ``C``)."""
        # ``values`` is copied at emission: callers may mutate it afterwards
        self._buffer.append(("C", pid, thread, name, cat, ts_ns, None, dict(values)))

    def async_event(
        self,
        phase: str,
        pid: int,
        thread: str,
        name: str,
        span_id: int,
        ts_ns: int,
        cat: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """One leg of an async span (phases ``b``/``n``/``e``).

        Async spans may overlap freely on one thread row, which is what
        the kernel event lifecycle needs: event A can register before B
        yet dispatch after it.
        """
        self._buffer.append((phase, pid, thread, name, cat, ts_ns, span_id, args or {}))

    # ------------------------------------------------------------------
    # reading the capture
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[dict]:
        """Chrome-trace-shaped event dicts, ``ts``/``dur`` in virtual ns.

        Materialised lazily from the compact buffer: emission pays one
        tuple append, and the dicts are built once, on first read past
        the previously materialised point.
        """
        events = self._events
        buffer = self._buffer
        done = len(events)
        if done == len(buffer):
            return events
        append = events.append
        for row in buffer[done:] if done else buffer:
            ph, pid, thread, name, cat, ts, extra, args = row
            if ph == "X":
                append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "thread": thread,
                        "name": name,
                        "cat": cat,
                        "ts": ts,
                        "dur": extra,
                        "args": args,
                    }
                )
            elif ph == "i":
                append(
                    {
                        "ph": "i",
                        "s": "t",
                        "pid": pid,
                        "thread": thread,
                        "name": name,
                        "cat": cat,
                        "ts": ts,
                        "args": args,
                    }
                )
            elif ph == "C":
                append(
                    {
                        "ph": "C",
                        "pid": pid,
                        "thread": thread,
                        "name": name,
                        "cat": cat,
                        "ts": ts,
                        "args": args,
                    }
                )
            else:
                append(
                    {
                        "ph": ph,
                        "pid": pid,
                        "thread": thread,
                        "name": name,
                        "cat": cat,
                        "id": extra,
                        "ts": ts,
                        "args": args,
                    }
                )
        return events

    def thread_table(self) -> Dict[Tuple[int, str], int]:
        """(pid, thread name) -> tid, in first-appearance order."""
        table: Dict[Tuple[int, str], int] = {}
        next_tid: Dict[int, int] = {}
        for row in self._buffer:
            key = (row[1], row[2])
            if key not in table:
                pid = row[1]
                tid = next_tid.get(pid, 1)
                table[key] = tid
                next_tid[pid] = tid + 1
        return table

    def __len__(self) -> int:
        return len(self._buffer)


#: The permanently disabled tracer shared by untraced simulators.
NULL_TRACER = Tracer(enabled=False)

_active: Optional[Tracer] = None


def current_tracer() -> Tracer:
    """The tracer new simulators should attach to."""
    return _active if _active is not None else NULL_TRACER


@contextmanager
def capture(tracer: Optional[Tracer] = None):
    """Route every simulator built inside the block into one tracer.

    ::

        with capture() as tracer:
            run_table1(...)
        write_chrome_trace(tracer, "trace.json")
    """
    global _active
    if tracer is None:
        tracer = Tracer(enabled=True)
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous

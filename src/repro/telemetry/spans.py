"""Wall-clock spans and the structured JSONL run log.

The PR-1 tracer observes *virtual* time inside one simulation; this
module observes the **harness itself**: how long a matrix, cube or fuzz
campaign actually took, per shard and per cell, on the wall clock.  A
:class:`SpanRecorder` appends one JSON object per line to a run log
(``RUN_<cmd>.jsonl`` by default), and :func:`span` wraps any block in a
begin/end pair with parent linkage, so the log reconstructs the
harness's own execution tree — engine runs, shard lifecycles, cell
outcomes, cache hits — without touching the deterministic artifacts.

Context propagation is a :class:`contextvars.ContextVar`, so spans nest
correctly across threads (each thread sees its own current span), and
process safety comes from line-granular appends: every record is a
single short ``write()`` to a file opened in append mode, which POSIX
keeps atomic, so pool workers share the parent's log file by path (the
``REPRO_RUNLOG`` environment variable) without interleaving bytes.
Records carry ``pid`` and per-process span ids, so readers key spans by
``(pid, span)``.

Wall-clock values never flow into the deterministic telemetry snapshot
— the run log is the one artifact that is *expected* to differ between
machines.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Optional

__all__ = [
    "RUNLOG_ENV",
    "SpanRecorder",
    "current_recorder",
    "set_recorder",
    "span",
    "worker_recorder",
]

#: Environment variable carrying the run-log path into pool workers.
RUNLOG_ENV = "REPRO_RUNLOG"

#: The current span id within this thread/task (None at top level).
_CURRENT_SPAN: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_telemetry_span", default=None
)


class SpanRecorder:
    """Appends structured JSONL records to one run-log file.

    Every record has ``ev`` (the record type), ``ts`` (epoch seconds)
    and ``pid``; span records add ``span``/``parent``/``name`` and end
    records a wall ``dur_s``.  The recorder is thread-safe (one lock
    around each append) and each line is a single write, so multiple
    processes appending to the same path never tear each other's lines.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._next_span = 1
        self._handle = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def emit(self, ev: str, **fields: Any) -> None:
        """Append one record; never raises into the harness."""
        record: Dict[str, Any] = {"ev": ev, "ts": time.time(), "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
        try:
            with self._lock:
                if self._handle.closed:
                    return
                self._handle.write(line + "\n")
                self._handle.flush()
        except OSError:  # pragma: no cover - disk-full etc.: telemetry only
            pass

    def point(self, name: str, **attrs: Any) -> None:
        """One instant event (a cell outcome, a cache hit)."""
        self.emit("point", name=name, parent=_CURRENT_SPAN.get(), attrs=attrs)

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Wrap a block in a begin/end pair with parent linkage."""
        with self._lock:
            span_id = self._next_span
            self._next_span += 1
        parent = _CURRENT_SPAN.get()
        started = time.perf_counter()
        self.emit("span_begin", name=name, span=span_id, parent=parent, attrs=attrs)
        token = _CURRENT_SPAN.set(span_id)
        try:
            yield span_id
        finally:
            _CURRENT_SPAN.reset(token)
            self.emit(
                "span_end",
                name=name,
                span=span_id,
                parent=parent,
                dur_s=round(time.perf_counter() - started, 6),
            )

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


# ----------------------------------------------------------------------
# the ambient recorder (parent process: set by the telemetry session;
# pool workers: recreated from $REPRO_RUNLOG on demand)
# ----------------------------------------------------------------------
_active: Optional[SpanRecorder] = None


def set_recorder(recorder: Optional[SpanRecorder]) -> Optional[SpanRecorder]:
    """Install the ambient recorder; returns the previous one."""
    global _active
    previous = _active
    _active = recorder
    return previous


def current_recorder() -> Optional[SpanRecorder]:
    """The ambient recorder, or ``None`` when no run log is active."""
    return _active


def worker_recorder() -> Optional[SpanRecorder]:
    """The recorder a pool worker should use, from ``$REPRO_RUNLOG``.

    Workers inherit the parent's run-log *path* through the environment
    (recorder objects hold file handles and locks, so they never cross
    the process boundary).  Returns the ambient recorder when one is
    already installed in this process and still matches the inherited
    path; otherwise opens the path once and **installs it as the
    ambient recorder**, so a worker that runs many chunks appends
    through one cached file handle instead of opening a new descriptor
    per chunk.  Returns ``None`` when no path is inherited.
    """
    global _active
    path = os.environ.get(RUNLOG_ENV, "")
    if _active is not None and (not path or _active.path == path):
        return _active
    if not path:
        return None
    try:
        recorder = SpanRecorder(path)
    except OSError:  # pragma: no cover - unwritable path: telemetry only
        return None
    _active = recorder
    return recorder


@contextmanager
def span(name: str, **attrs: Any):
    """``with span("cube.cell", attack=...)``: no-op without a recorder.

    The harness is instrumented unconditionally; the cost without an
    active run log is one global load and one branch.
    """
    recorder = _active
    if recorder is None:
        yield None
        return
    with recorder.span(name, **attrs) as span_id:
        yield span_id

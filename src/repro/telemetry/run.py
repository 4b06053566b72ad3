"""The telemetry session: one run's merged, memory-bounded observability.

A :class:`RunTelemetry` is installed ambiently by
:func:`telemetry_session` (the CLI's ``--live`` / ``--telemetry-out`` /
``--runlog`` flags) and fed by the experiment engine:

* every cell completion (cached or computed) bumps the **engine**
  accounting and drives the live reporter;
* every worker/cell metrics snapshot is folded into one
  :class:`~repro.trace.metrics.MetricsRegistry` **in shard order** — so
  the merged counters and histograms (quantile sketches) equal a
  serial run's, byte-identically for a fixed seed regardless of the worker
  count, and the parent never holds more than one snapshot's centroids
  at a time (never a raw sample list);
* cache traffic (hits / misses / stores) is mirrored from the
  :class:`~repro.harness.cache.ResultCache`'s own counters, so the
  final artifact answers "how warm was this run" without
  double-counting the ``cache.*`` counters some captures also carry
  (the ``metrics`` section keeps only runtime metrics; engine and cache
  accounting live in their own sections).

:meth:`RunTelemetry.snapshot` is the deterministic artifact;
:meth:`RunTelemetry.report` wraps it with the wall-clock ``run``
section (duration, throughput, shard count) that is expected to differ
between machines.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Optional

from .reporter import LiveReporter
from .spans import RUNLOG_ENV, SpanRecorder, set_recorder

__all__ = [
    "RunTelemetry",
    "current_run",
    "telemetry_session",
]

#: Format version of the exported snapshot/report documents.
SNAPSHOT_VERSION = 1

#: Metric-name prefix of the event-loop queue-delay histograms.
QUEUE_DELAY_PREFIX = "eventloop.queue_delay_ns."


class RunTelemetry:
    """Merged telemetry state for one command run."""

    def __init__(
        self,
        command: str,
        reporter: Optional[LiveReporter] = None,
        recorder: Optional[SpanRecorder] = None,
    ):
        self.command = command
        self.reporter = reporter
        self.recorder = recorder
        # deferred: repro.trace.metrics itself imports this package
        from ..trace.metrics import MetricsRegistry

        #: Runtime metrics merged from per-cell/per-worker snapshots.
        self.metrics = MetricsRegistry()
        #: Engine accounting (deterministic for a fixed cell list).
        self.engine: Dict[str, int] = {
            "runs": 0,
            "cells": 0,
            "computed": 0,
            "cached": 0,
            "errors": 0,
        }
        #: Cache traffic mirrored from the ResultCache (deterministic).
        self.cache: Dict[str, int] = {"hits": 0, "misses": 0, "stores": 0}
        #: Shard (chunk) progress — wall-clock-ish: depends on workers.
        self.shards: Dict[str, int] = {"total": 0, "done": 0}
        self.total_cells = 0
        self.started_unix = time.time()
        self._started_perf = time.perf_counter()

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def engine_started(self, workers: int, cells: Optional[int] = None) -> None:
        """An engine run begins; ``cells`` is its size when known up front.

        A sized run announces its total so the live line shows
        ``k/N cells`` and an ETA from the first repaint; the cells
        themselves are counted as they are admitted.
        """
        self.engine["runs"] += 1
        if cells is not None:
            self.total_cells = self.engine["cells"] + cells
        if self.recorder is not None:
            self.recorder.point("engine.run", cells=cells, workers=workers)

    def cell_admitted(self, count: int = 1) -> None:
        """The engine pulled ``count`` more cells from its input."""
        self.engine["cells"] += count
        self.total_cells = max(self.total_cells, self.engine["cells"])

    def shards_planned(self, count: int) -> None:
        self.shards["total"] += count

    def shard_done(self, index: int, cells: int) -> None:
        self.shards["done"] += 1
        if self.recorder is not None:
            self.recorder.point("engine.shard_merged", shard=index, cells=cells)

    def cell_finished(
        self,
        cell,
        ok: bool,
        cached: bool,
        error: Optional[str] = None,
        emit: bool = True,
    ) -> None:
        """One cell's outcome: accounting, run log, live repaint.

        ``emit=False`` skips the run-log record — the parallel path uses
        it for computed cells, whose records the worker already wrote.
        """
        if cached:
            self.engine["cached"] += 1
        else:
            self.engine["computed"] += 1
        if not ok:
            self.engine["errors"] += 1
        if emit and self.recorder is not None:
            attrs = {"kind": cell.kind, "ok": ok, "cached": cached}
            if error:
                attrs["error"] = error
            self.recorder.point("engine.cell", **attrs)
        if self.reporter is not None:
            self.reporter.update(self)

    def merge_metrics(self, snapshot: dict) -> None:
        """Fold one metrics snapshot in (must be called in shard order)."""
        self.metrics.merge_snapshot(snapshot)

    def record_cache_traffic(self, hits: int, misses: int, stores: int) -> None:
        self.cache["hits"] += hits
        self.cache["misses"] += misses
        self.cache["stores"] += stores

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def queue_delay_quantiles(self) -> Dict[str, float]:
        """Running p50/p95/p99 over every queue-delay histogram merged so far."""
        merged = self.metrics.merged_sketch(QUEUE_DELAY_PREFIX)
        if merged is None:
            return {}
        return {
            "p50": merged.quantile(0.5),
            "p95": merged.quantile(0.95),
            "p99": merged.quantile(0.99),
        }

    def snapshot(self) -> dict:
        """The deterministic merged snapshot (no wall-clock values).

        For a fixed seed and cell list this document is byte-identical
        across ``--parallel`` worker counts (shard-order merging plus
        the sketch's exact integer algebra).
        """
        return {
            "version": SNAPSHOT_VERSION,
            "command": self.command,
            "engine": {key: self.engine[key] for key in sorted(self.engine)},
            "cache": {key: self.cache[key] for key in sorted(self.cache)},
            "metrics": self.metrics.snapshot(),
        }

    def report(self) -> dict:
        """Snapshot plus the wall-clock ``run`` section (the export)."""
        duration = time.perf_counter() - self._started_perf
        done = self.engine["cached"] + self.engine["computed"]
        report = self.snapshot()
        report["run"] = {
            "started_unix": round(self.started_unix, 3),
            "duration_s": round(duration, 6),
            "cells_per_s": round(done / duration, 3) if duration > 0 else None,
            "shards": dict(self.shards),
            "queue_delay_quantiles": self.queue_delay_quantiles() or None,
        }
        return report


# ----------------------------------------------------------------------
# the ambient session
# ----------------------------------------------------------------------
_active: Optional[RunTelemetry] = None


def current_run() -> Optional[RunTelemetry]:
    """The active telemetry run, or ``None`` outside a session."""
    return _active


@contextmanager
def telemetry_session(
    command: str,
    live: bool = False,
    runlog: Optional[str] = None,
    stream=None,
):
    """Install a :class:`RunTelemetry` ambiently for one command run.

    ``live`` attaches a stderr :class:`LiveReporter` (``stream``
    overrides the target, for tests); ``runlog`` opens a
    :class:`SpanRecorder` on that path and exports it to pool workers
    through ``$REPRO_RUNLOG``.  On exit the reporter is finished, the
    run log gains its ``run_end`` record, and the previous ambient
    state is restored.
    """
    global _active
    recorder = SpanRecorder(runlog) if runlog else None
    reporter = LiveReporter(command, stream=stream) if live else None
    telemetry = RunTelemetry(command, reporter=reporter, recorder=recorder)
    previous = _active
    previous_recorder = set_recorder(recorder)
    previous_env = os.environ.get(RUNLOG_ENV)
    if recorder is not None:
        os.environ[RUNLOG_ENV] = recorder.path
        recorder.emit("run_begin", command=command)
    _active = telemetry
    try:
        yield telemetry
    finally:
        _active = previous
        set_recorder(previous_recorder)
        if recorder is not None:
            if previous_env is None:
                os.environ.pop(RUNLOG_ENV, None)
            else:
                os.environ[RUNLOG_ENV] = previous_env
            engine = telemetry.engine
            recorder.emit(
                "run_end",
                command=command,
                cells=engine["cells"],
                computed=engine["computed"],
                cached=engine["cached"],
                errors=engine["errors"],
                duration_s=round(time.perf_counter() - telemetry._started_perf, 6),
            )
            recorder.close()
        if reporter is not None:
            reporter.finish(telemetry)

"""Campaign telemetry: mergeable sketches, wall-clock spans, live reporting.

The deterministic tracer (:mod:`repro.trace`) observes virtual time
*inside* a simulation; this package observes the harness *around* it:

* :mod:`repro.telemetry.sketch` — mergeable quantile sketch with
  exact, associative merge algebra (byte-identical snapshots across
  ``--parallel`` worker counts for integer observations); it is the
  one distribution type, every metrics-registry histogram is one;
* :mod:`repro.telemetry.spans` — wall-clock spans and the structured
  JSONL run log (``RUN_<cmd>.jsonl``);
* :mod:`repro.telemetry.reporter` — the ``--live`` stderr progress line;
* :mod:`repro.telemetry.export` — the JSON exporter for the final
  merged snapshot (``--telemetry-out``);
* :mod:`repro.telemetry.run` — the per-command session tying these
  together and the ambient :func:`current_run` the engine consults.
"""

from .reporter import LiveReporter, format_duration, format_ns
from .run import QUEUE_DELAY_PREFIX, RunTelemetry, current_run, telemetry_session
from .sketch import DEFAULT_QUANTILES, QuantileSketch
from .spans import (
    RUNLOG_ENV,
    SpanRecorder,
    current_recorder,
    set_recorder,
    span,
    worker_recorder,
)
from .export import render_summary, write_telemetry

__all__ = [
    "DEFAULT_QUANTILES",
    "LiveReporter",
    "QUEUE_DELAY_PREFIX",
    "QuantileSketch",
    "RUNLOG_ENV",
    "RunTelemetry",
    "SpanRecorder",
    "current_recorder",
    "current_run",
    "format_duration",
    "format_ns",
    "render_summary",
    "set_recorder",
    "span",
    "telemetry_session",
    "worker_recorder",
    "write_telemetry",
]

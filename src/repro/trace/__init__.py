"""Unified tracing & metrics for the simulated runtime and kernel.

Everything in this package is keyed to **virtual time**: timestamps are
the integer-nanosecond clock of :class:`~repro.runtime.simulator.Simulator`
(converted to microseconds only at Chrome-trace export), never wall time.
A traced quantity therefore describes the *simulated* schedule — task
queueing delays, kernel registration→confirmation→dispatch latencies —
and a seeded scenario captures byte-identically on every run, which makes
a trace both a debugging artefact and a regression fixture.

Usage::

    from repro.trace import capture, write_chrome_trace

    with capture() as tracer:
        ...  # build browsers, run attacks/workloads
    write_chrome_trace(tracer, "trace.json")   # open in Perfetto
    print(tracer.metrics.format())

Simulators created inside :func:`capture` pick the tracer up on
construction and keep it for life, so build the browser inside the
block to trace it.  Outside a capture every simulator shares the
disabled :data:`NULL_TRACER`, whose cost at each instrumentation site
is one attribute load and one branch.
"""

from .access import state_access
from .export import chrome_trace, dump_chrome_trace, format_timeline, write_chrome_trace
from .metrics import Counter, Gauge, MetricsRegistry
from .tracer import NULL_TRACER, Tracer, capture, current_tracer

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Tracer",
    "capture",
    "chrome_trace",
    "current_tracer",
    "dump_chrome_trace",
    "format_timeline",
    "state_access",
    "write_chrome_trace",
]

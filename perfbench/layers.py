"""Per-layer tracing for the benchmark's traced passes.

The traced pass wraps, from this file, the public entry points of each
layer a cell passes through and records one span per call: name, start,
end and the span that was open when it started.  Nothing inside
``repro`` changes; the wrappers are installed in the child process only
when ``--trace 1`` asks for a traced pass.

Spans live in memory as four flat arrays and are written out once, when
the pass ends (:meth:`SpanRecorder.write`).  A span's *self time* is its
duration minus the durations of its direct children, so each
nanosecond of the pass lands in exactly one place: the self time of the
innermost open span, or ``harness.overhead_s`` when no span is open.

Functions called millions of times per pass (``hash_seed``, the
``Element.descendants`` generators, the ``Tracer`` record methods) are
deliberately not wrapped: a wrapper there would cost more than the work
it measures.  Their cost shows up as self time of the enclosing span.
Instance counts (simulator events, event-loop tasks, trace records) are
read from the objects a cell created when the cell ends, not counted per
call.
"""

from __future__ import annotations

import array
import functools
import json
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Every per-layer metric: (name, unit, better, end-to-end metric it
#: should move, workload where it works hard / where it idles).
LAYER_METRICS: List[Tuple[str, str, str, str, str]] = [
    ("runtime.render.frames", "count", "lower", "wall_s", "table1 / fuzz-diff, population"),
    ("runtime.render.frame_s", "s", "lower", "wall_s", "table1 / fuzz-diff, population"),
    ("runtime.dom.creates", "count", "lower", "wall_s", "table1 / fuzz-diff, population"),
    ("runtime.dom.create_s", "s", "lower", "wall_s", "table1 / fuzz-diff, population"),
    ("runtime.dom.appends", "count", "lower", "wall_s", "table1 / fuzz-diff, population"),
    ("runtime.dom.append_s", "s", "lower", "wall_s", "table1 / fuzz-diff, population"),
    ("runtime.simulator.events", "count", "lower", "wall_s", "table1, fuzz-diff / population"),
    ("runtime.simulator.self_s", "s", "lower", "wall_s", "table1, fuzz-diff / population"),
    ("runtime.simulator.ns_per_event", "ns", "lower", "wall_s", "table1, fuzz-diff / population"),
    ("runtime.eventloop.tasks", "count", "lower", "wall_s", "table1, fuzz-diff / population"),
    ("defenses.browsers", "count", "lower", "items_per_s", "fuzz-diff / population"),
    ("defenses.make_browser_s", "s", "lower", "items_per_s", "fuzz-diff / population"),
    ("defenses.install_s", "s", "lower", "items_per_s", "fuzz-diff / population"),
    ("runtime.page.opens", "count", "lower", "items_per_s", "fuzz-diff / population"),
    ("runtime.page.open_s", "s", "lower", "items_per_s", "fuzz-diff / population"),
    ("kernel.scheduler.calls", "count", "lower", "wall_s", "fuzz-diff / population"),
    ("kernel.scheduler_s", "s", "lower", "wall_s", "fuzz-diff / population"),
    ("kernel.dispatcher.kicks", "count", "lower", "wall_s", "fuzz-diff / population"),
    ("kernel.dispatcher_s", "s", "lower", "wall_s", "fuzz-diff / population"),
    ("trace.records", "count", "lower", "wall_s", "fuzz-diff / table1"),
    ("trace.export_s", "s", "lower", "wall_s", "fuzz-diff / table1"),
    ("trace.metrics_s", "s", "lower", "wall_s", "fuzz-diff / table1"),
    ("analysis.hbgraph_s", "s", "lower", "wall_s", "fuzz-diff / table1"),
    ("analysis.races_s", "s", "lower", "wall_s", "fuzz-diff / table1"),
    ("explore.trials", "count", "higher", "wall_s", "fuzz-diff / table1"),
    ("explore.trial_s", "s", "lower", "wall_s", "fuzz-diff / table1"),
    ("explore.divergent_ratio", "ratio", "higher", "wall_s", "fuzz-diff / table1"),
    ("harness.cells", "count", "higher", "items_per_s", "population / table1"),
    ("harness.cell_s", "s", "lower", "items_per_s", "population / table1"),
    ("harness.cell_self_s", "s", "lower", "items_per_s", "population / table1"),
    ("harness.overhead_s", "s", "lower", "items_per_s", "population / table1"),
    ("harness.cell_p50_ms", "ms", "lower", "items_per_s", "population / table1"),
    ("harness.cell_p90_ms", "ms", "lower", "items_per_s", "population / table1"),
    ("harness.cell_samples", "count", "higher", "items_per_s", "population / table1"),
    ("workloads.population.pages", "count", "higher", "items_per_s", "population / others"),
    ("workloads.population.page_s", "s", "lower", "items_per_s", "population / others"),
    ("workloads.sites.stats_s", "s", "lower", "items_per_s", "population / others"),
    ("telemetry.sketch.merge_s", "s", "lower", "peak_rss_mb", "population / others"),
    ("bench.trace_overhead", "ratio", "lower", "wall_s", "every workload"),
]

#: Span name -> per-layer time metric that reports its summed self time.
SELF_TIME_METRICS: Dict[str, str] = {
    "runtime.render.frame": "runtime.render.frame_s",
    "runtime.dom.create": "runtime.dom.create_s",
    "runtime.dom.append": "runtime.dom.append_s",
    "runtime.simulator": "runtime.simulator.self_s",
    "defenses.make_browser": "defenses.make_browser_s",
    "defenses.install": "defenses.install_s",
    "runtime.page.open": "runtime.page.open_s",
    "kernel.scheduler": "kernel.scheduler_s",
    "kernel.dispatcher": "kernel.dispatcher_s",
    "trace.export": "trace.export_s",
    "trace.metrics": "trace.metrics_s",
    "analysis.hbgraph": "analysis.hbgraph_s",
    "analysis.races": "analysis.races_s",
    "explore.trial": "explore.trial_s",
    "harness.cell": "harness.cell_self_s",
    "workloads.population.page": "workloads.population.page_s",
    "workloads.sites.stats": "workloads.sites.stats_s",
    "telemetry.sketch.merge": "telemetry.sketch.merge_s",
}

#: Span name -> per-layer count metric that reports how many ran.
COUNT_METRICS: Dict[str, str] = {
    "runtime.render.frame": "runtime.render.frames",
    "runtime.dom.create": "runtime.dom.creates",
    "runtime.dom.append": "runtime.dom.appends",
    "defenses.make_browser": "defenses.browsers",
    "runtime.page.open": "runtime.page.opens",
    "kernel.scheduler": "kernel.scheduler.calls",
    "kernel.dispatcher": "kernel.dispatcher.kicks",
    "explore.trial": "explore.trials",
    "harness.cell": "harness.cells",
    "workloads.population.page": "workloads.population.pages",
}


class SpanRecorder:
    """In-memory span store: parallel arrays of name, start, end, parent."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self._open: List[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, on_exit: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call (``on_exit()`` runs after)."""
        nid = self._intern(name)
        clock = time.monotonic_ns
        open_spans = self._open
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
                if on_exit is not None:
                    on_exit()

        return spanned

    def self_times(self) -> List[int]:
        """Per-span self time (ns): duration minus direct children."""
        selfs = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                selfs[parent] -= self.end[index] - self.start[index]
        return selfs

    def root_ns(self) -> int:
        """Summed duration of the spans with no parent."""
        return sum(e - s for p, s, e in zip(self.parent, self.start, self.end) if p < 0)

    def nesting_errors(self) -> int:
        """Spans not inside their parent's interval (0 when well formed)."""
        bad = 0
        for index, parent in enumerate(self.parent):
            if parent >= 0 and not (
                self.start[parent] <= self.start[index]
                and self.end[index] <= self.end[parent]
            ):
                bad += 1
        return bad

    def write(self, path: str, wall_ns: int) -> None:
        """Dump the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "wall_ns": wall_ns,
            "arrays": [["name_id", "i"], ["start", "q"], ["end", "q"], ["parent", "i"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(handle)


def read_spans(path: str) -> Tuple[dict, Dict[str, array.array]]:
    """Load a file written by :meth:`SpanRecorder.write`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(handle, header["count"])
            arrays[name] = arr
    return header, arrays


class LayerTrace:
    """The wrappers of one traced pass plus the per-cell instance counts."""

    def __init__(self, cell_kind: str):
        self.cell_kind = cell_kind
        self.spans = SpanRecorder()
        self.counts = {"runtime.simulator.events": 0, "runtime.eventloop.tasks": 0,
                       "trace.records": 0}
        # objects built inside the running cell, summed when it ends
        self._simulators: list = []
        self._loops: list = []
        self._tracers: list = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (call after the workload's setup)."""
        from repro.analysis import hbgraph, races
        from repro.defenses import backend, base as defense_base
        from repro.explore import oracles
        from repro.harness import parallel
        from repro.kernel.dispatcher import Dispatcher
        from repro.kernel.scheduler import Scheduler
        from repro.runtime.browser import Browser
        from repro.runtime.dom import Document, Element
        from repro.runtime.eventloop import EventLoop
        from repro.runtime.render import Renderer
        from repro.runtime.simulator import Simulator
        from repro.telemetry.sketch import QuantileSketch
        from repro.trace.metrics import MetricsRegistry
        from repro.trace.tracer import Tracer
        from repro.workloads import population, sites

        wrap = self.spans.wrap
        methods = [
            (Renderer, "_on_frame", "runtime.render.frame"),
            (Document, "create_element", "runtime.dom.create"),
            (Element, "append_child", "runtime.dom.append"),
            (Simulator, "run", "runtime.simulator"),
            (Simulator, "run_until", "runtime.simulator"),
            (Simulator, "step", "runtime.simulator"),
            (backend.DefenseBackend, "install", "defenses.install"),
            (Browser, "open_page", "runtime.page.open"),
            (Scheduler, "register", "kernel.scheduler"),
            (Scheduler, "confirm", "kernel.scheduler"),
            (Dispatcher, "kick", "kernel.dispatcher"),
            (MetricsRegistry, "snapshot", "trace.metrics"),
            (MetricsRegistry, "merge_snapshot", "trace.metrics"),
            (QuantileSketch, "merge", "telemetry.sketch.merge"),
            (population.PopulationAggregate, "add", "telemetry.sketch.merge"),
        ]
        for owner, attr, name in methods:
            setattr(owner, attr, wrap(getattr(owner, attr), name))
        Tracer.events = property(wrap(Tracer.events.fget, "trace.export"))

        functions = [
            (defense_base.make_browser, "defenses.make_browser"),
            (hbgraph.build_hb_graph, "analysis.hbgraph"),
            (races.analyze_races, "analysis.races"),
            (oracles.evaluate_divergence, "explore.trial"),
            (population.run_population_page, "workloads.population.page"),
            (sites.site_stats, "workloads.sites.stats"),
        ]
        for fn, name in functions:
            _rebind(fn, wrap(fn, name))

        for cls, bucket in ((Simulator, self._simulators), (EventLoop, self._loops),
                            (Tracer, self._tracers)):
            _track_instances(cls, bucket)

        runners = parallel._RUNNERS
        runners[self.cell_kind] = wrap(
            runners[self.cell_kind], "harness.cell", on_exit=self._cell_done
        )

    def _cell_done(self) -> None:
        counts = self.counts
        counts["runtime.simulator.events"] += sum(s.events_processed for s in self._simulators)
        counts["runtime.eventloop.tasks"] += sum(loop.tasks_run for loop in self._loops)
        counts["trace.records"] += sum(len(t) for t in self._tracers)
        self._simulators.clear()
        self._loops.clear()
        self._tracers.clear()

    # ------------------------------------------------------------------
    def metrics(self, wall_ns: int) -> Dict[str, float]:
        """The per-layer metrics of the pass (explore/bench ones excluded)."""
        spans = self.spans
        names = spans.names
        selfs = spans.self_times()
        self_ns = [0] * len(names)
        calls = [0] * len(names)
        for nid, own in zip(spans.name_id, selfs):
            self_ns[nid] += own
            calls[nid] += 1
        out: Dict[str, float] = {}
        for name in set(SELF_TIME_METRICS) | set(COUNT_METRICS):
            nid = spans._name_ids.get(name)
            if name in SELF_TIME_METRICS:
                out[SELF_TIME_METRICS[name]] = self_ns[nid] / 1e9 if nid is not None else 0.0
            if name in COUNT_METRICS:
                out[COUNT_METRICS[name]] = calls[nid] if nid is not None else 0
        out.update(self.counts)
        events = out["runtime.simulator.events"]
        out["runtime.simulator.ns_per_event"] = (
            out["runtime.simulator.self_s"] * 1e9 / events if events else 0.0
        )

        cell_id = spans._name_ids.get("harness.cell")
        cell_ns = sorted(
            e - s
            for nid, s, e in zip(spans.name_id, spans.start, spans.end)
            if nid == cell_id
        )
        out["harness.cell_s"] = sum(cell_ns) / 1e9
        out["harness.overhead_s"] = (wall_ns - spans.root_ns()) / 1e9
        out["harness.cell_p50_ms"] = _percentile(cell_ns, 0.50) / 1e6
        out["harness.cell_p90_ms"] = _percentile(cell_ns, 0.90) / 1e6
        out["harness.cell_samples"] = len(cell_ns)
        return out

    def problems(self, wall_ns: int) -> List[str]:
        """Accounting faults: a span outside its parent, a negative self
        time, or self times plus overhead not adding up to the wall."""
        spans = self.spans
        selfs = spans.self_times()
        overhead = wall_ns - spans.root_ns()
        found = []
        if spans.nesting_errors():
            found.append(f"{spans.nesting_errors()} spans outside their parent")
        if min(selfs, default=0) < 0 or overhead < 0:
            found.append("negative self time or overhead")
        if sum(selfs) + overhead != wall_ns:
            found.append("self times + harness.overhead_s != wall")
        return found


def _percentile(sorted_values: List[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q))
    return float(sorted_values[rank - 1])


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (``from x import f`` copies the name per module)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _track_instances(cls, bucket: list) -> None:
    """Append every new ``cls`` instance to ``bucket``."""
    init = cls.__init__

    @functools.wraps(init)
    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bucket.append(self)

    cls.__init__ = tracked

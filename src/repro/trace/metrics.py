"""Metrics primitives: counters, gauges and histograms.

Every value recorded here is derived from **virtual time** or virtual-time
event counts, so a seeded scenario produces identical metrics on every
run.  The registry is deliberately plain: metric objects are created on
demand by name, and :meth:`MetricsRegistry.snapshot` returns nothing but
dicts, lists and numbers so harness reports can embed it directly in
their result payloads (and ``json.dumps`` it without custom encoders).

There is one distribution type: a histogram **is** a
:class:`~repro.telemetry.sketch.QuantileSketch`.  It keeps exact count,
sum, min and max, answers quantiles to 0.5% value resolution, and
merges exactly (associative and commutative for integer observations),
so a per-cell profile, a worker snapshot and a campaign-wide telemetry
report all read the same state, whatever flags the run was started
with.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..telemetry.sketch import QuantileSketch


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter decrement: {amount}")
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depths, live threads)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value


class MetricsRegistry:
    """Name-keyed store of counters, gauges and histograms.

    Every histogram is a :class:`~repro.telemetry.sketch.QuantileSketch`
    recorded with :meth:`~repro.telemetry.sketch.QuantileSketch.add`.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, QuantileSketch] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> QuantileSketch:
        """The histogram called ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = QuantileSketch()
        return histogram

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict dump of every metric, keys sorted for determinism.

        Each histogram entry is a :meth:`QuantileSketch.to_dict` document:
        exact ``count``, ``sum``, ``min`` and ``max``, plus the
        sketch's centroids.
        """
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The parallel harness runs each worker's cells under a private
        registry and merges the snapshots back in shard order, so a
        parallel run's counters and histograms equal the serial run's.
        Counters add; histograms merge centroid-wise (a sketch of a
        different accuracy is rejected with ``ValueError``); gauges are
        last-write-wins — they are instantaneous values, and merging in
        shard order reproduces the serial "final value" semantics.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(data)

    def merged_sketch(self, prefix: str) -> Optional[QuantileSketch]:
        """Merge every histogram whose name starts with ``prefix``.

        Returns ``None`` when no matching histogram holds any samples.
        Merging happens on a fresh sketch — the stored ones are never
        mutated by a read.
        """
        merged: Optional[QuantileSketch] = None
        for name in sorted(self._histograms):
            sketch = self._histograms[name]
            if not name.startswith(prefix) or sketch.count == 0:
                continue
            if merged is None:
                merged = QuantileSketch(
                    accuracy=sketch.accuracy, max_centroids=sketch.max_centroids
                )
            merged.merge(sketch)
        return merged

    def format(self) -> str:
        """Human-readable metrics summary (CLI ``--metrics`` output)."""
        lines = []
        if self._counters:
            lines.append("counters:")
            for name, counter in sorted(self._counters.items()):
                lines.append(f"  {name:48s} {counter.value}")
        if self._gauges:
            lines.append("gauges:")
            for name, gauge in sorted(self._gauges.items()):
                lines.append(f"  {name:48s} {gauge.value}")
        if self._histograms:
            lines.append("histograms:")
            for name, sketch in sorted(self._histograms.items()):
                quantiles = " ".join(
                    f"{label}={value:.0f}"
                    for label, value in sketch.quantiles().items()
                    if value is not None
                )
                lines.append(
                    f"  {name:48s} n={sketch.count} mean={sketch.mean or 0.0:.0f} "
                    f"min={sketch.min} max={sketch.max} {quantiles}".rstrip()
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

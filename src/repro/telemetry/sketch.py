"""Mergeable quantile sketches.

The campaign layer needs Figure-3-style percentiles (queue-delay CDFs,
dispatch latencies) over runs far too large to keep every sample in
memory — the ROADMAP's million-page sweep, a 200-cell cube, a fuzz
campaign.  :class:`QuantileSketch` is a t-digest-style sketch: a bounded
set of weighted centroids, each summarising the samples that fell near
it, merged by centroid-wise addition and queried by interpolating
between centroid means.  Unlike a classical t-digest (whose centroid
positions depend on insertion history), centroids here sit at
**deterministic log-spaced positions** (DDSketch-style indices
``ceil(log_gamma |v|)`` with ``gamma = (1+accuracy)/(1-accuracy)``),
which buys the property the parallel engine's determinism contract
requires: **merging is exactly associative and commutative** — for
integer observations the serialized sketch is byte-identical no matter
how the sample stream was partitioned across workers.  Each centroid
stores its exact weight and exact sum (Python integers never round), so
a centroid's mean is the true mean of its samples.

Error model
-----------

A centroid at index ``k`` covers values in ``(gamma^(k-1), gamma^k]``,
so any sample and its centroid mean differ by at most a factor
``gamma`` (~``2*accuracy`` relative).  ``quantile(q)`` returns the mean
of the centroid containing the sample of rank ``q*(count-1)`` — never
interpolating *across* centroids, which would smear heavy ties — so the
estimate has **zero rank error** and at most ``~2*accuracy`` relative
value error versus the exact sample at that rank.
``tests/test_telemetry_sketch.py`` pins this against exact numpy
percentiles under hypothesis.

The **compression bound** ``max_centroids`` caps memory: when exceeded,
the smallest-magnitude centroids collapse into their neighbour
(cheapest place to lose resolution for latency-style data, where the
action is in the upper quantiles).  Collapsing preserves exact counts
and sums, but a collapse performed mid-stream can land weight on a
different neighbour than one performed at the end — so byte-identical
re-partitioning is guaranteed only while the bound is never exceeded.
With the defaults (``accuracy 0.005``, ``max_centroids 4096``) a
nanosecond-scale distribution spanning twelve decades fits without
ever collapsing, so in practice the bound is a memory backstop, not a
code path.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = ["QuantileSketch", "DEFAULT_QUANTILES"]

#: Quantiles reported by :meth:`QuantileSketch.quantiles` by default.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)


class QuantileSketch:
    """A mergeable quantile sketch over a stream of numbers.

    ``accuracy`` is the relative value resolution (0.005 = 0.5%);
    ``max_centroids`` is the compression bound on live centroids.
    Centroids are kept in two stores keyed by log-scale index — one for
    positive and one for negative values — plus an exact count of
    zeros, so the full real line is supported even though telemetry
    values are typically non-negative virtual nanoseconds.
    """

    __slots__ = (
        "accuracy",
        "max_centroids",
        "_log_gamma",
        "count",
        "total",
        "min",
        "max",
        "zero",
        "pos",
        "neg",
    )

    def __init__(self, accuracy: float = 0.005, max_centroids: int = 4096):
        if not 0.0 < accuracy < 1.0:
            raise ValueError(f"accuracy must be in (0, 1), got {accuracy}")
        if max_centroids < 8:
            raise ValueError(f"max_centroids must be >= 8, got {max_centroids}")
        self.accuracy = accuracy
        self.max_centroids = int(max_centroids)
        self._log_gamma = math.log((1.0 + accuracy) / (1.0 - accuracy))
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zero = 0
        #: index -> [weight, sum] (exact, ints stay ints)
        self.pos: Dict[int, List] = {}
        self.neg: Dict[int, List] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _index(self, magnitude: float) -> int:
        """Deterministic log-scale centroid index for ``magnitude > 0``."""
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: Union[int, float], weight: int = 1) -> None:
        """Fold one observation (optionally weighted) into the sketch."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.count += weight
        self.total += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value == 0:
            self.zero += weight
            return
        store = self.pos if value > 0 else self.neg
        index = self._index(value if value > 0 else -value)
        slot = store.get(index)
        if slot is None:
            store[index] = [weight, value * weight]
            if len(self.pos) + len(self.neg) > self.max_centroids:
                self._collapse()
        else:
            slot[0] += weight
            slot[1] += value * weight

    def _collapse(self) -> None:
        """Fold smallest-magnitude centroids upward until within bound.

        Victims are always the lowest indices (values nearest zero), and
        their weight and exact sum move into the next-lowest index of
        the same store — so the collapsed state depends only on *which*
        centroids exist, never on the order they were created, which is
        what keeps merging associative.
        """
        while len(self.pos) + len(self.neg) > self.max_centroids:
            # pick the store whose smallest index is smaller (tie: pos),
            # i.e. the centroid closest to zero overall
            candidates = []
            if self.pos:
                candidates.append((min(self.pos), self.pos))
            if self.neg:
                candidates.append((min(self.neg), self.neg))
            index, store = min(candidates, key=lambda pair: pair[0])
            if len(store) < 2:
                # a store cannot collapse below one centroid; fold the
                # other store instead (it must be the oversized one)
                store = self.neg if store is self.pos else self.pos
                index = min(store)
            weight, total = store.pop(index)
            target = min(key for key in store if key > index)
            slot = store[target]
            slot[0] += weight
            slot[1] += total

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: Union["QuantileSketch", dict]) -> "QuantileSketch":
        """Fold another sketch (or its :meth:`to_dict` form) into this one.

        Centroid-wise addition: exactly associative and commutative, and
        byte-identical under re-partitioning for integer observations.
        Accuracies must match (centroid indices are only comparable on
        the same log grid).
        """
        if isinstance(other, dict):
            other = QuantileSketch.from_dict(other)
        if other.accuracy != self.accuracy:
            raise ValueError(
                f"cannot merge sketches with different accuracies: "
                f"{self.accuracy} != {other.accuracy}"
            )
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max
        self.zero += other.zero
        for store, theirs in ((self.pos, other.pos), (self.neg, other.neg)):
            for index, (weight, total) in theirs.items():
                slot = store.get(index)
                if slot is None:
                    store[index] = [weight, total]
                else:
                    slot[0] += weight
                    slot[1] += total
        self.max_centroids = min(self.max_centroids, other.max_centroids)
        if len(self.pos) + len(self.neg) > self.max_centroids:
            self._collapse()
        return self

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _ordered_centroids(self) -> Iterator[Tuple[float, int]]:
        """Yield ``(mean, weight)`` in ascending value order."""
        for index in sorted(self.neg, reverse=True):
            weight, total = self.neg[index]
            yield total / weight, weight
        if self.zero:
            yield 0.0, self.zero
        for index in sorted(self.pos):
            weight, total = self.pos[index]
            yield total / weight, weight

    def quantile(self, q: float) -> Optional[float]:
        """Estimated value at quantile ``q`` (``None`` on an empty sketch).

        Returns the mean of the centroid containing the sample of rank
        ``q * (count - 1)``, clamped to the exact observed ``[min,
        max]``.  Interpolating *between* centroid means would smear
        heavy ties (a 99%-zeros distribution would report a nonzero
        median), so the estimate stays inside one centroid: zero rank
        error, value correct to the sketch's ``~2*accuracy``
        resolution.
        """
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return float(self.min)
        if q == 1.0:
            return float(self.max)
        rank = q * (self.count - 1)
        cumulative = 0
        for mean, weight in self._ordered_centroids():
            cumulative += weight
            if rank < cumulative:
                return float(min(max(mean, self.min), self.max))
        return float(self.max)

    def quantiles(
        self, qs: Iterable[float] = DEFAULT_QUANTILES
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p95": ...}`` for each requested quantile."""
        out: Dict[str, Optional[float]] = {}
        for q in qs:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = self.quantile(q)
        return out

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def centroid_count(self) -> int:
        """Live centroids (bounded by ``max_centroids``)."""
        return len(self.pos) + len(self.neg) + (1 if self.zero else 0)

    # ------------------------------------------------------------------
    # serialization (canonical: JSON-pure, sorted, ints stay ints)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "max_centroids": self.max_centroids,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "zero": self.zero,
            "neg": [[index, *self.neg[index]] for index in sorted(self.neg)],
            "pos": [[index, *self.pos[index]] for index in sorted(self.pos)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        sketch = cls(
            accuracy=data["accuracy"], max_centroids=data["max_centroids"]
        )
        sketch.count = data["count"]
        sketch.total = data["sum"]
        sketch.min = data["min"]
        sketch.max = data["max"]
        sketch.zero = data["zero"]
        sketch.neg = {index: [weight, total] for index, weight, total in data["neg"]}
        sketch.pos = {index: [weight, total] for index, weight, total in data["pos"]}
        return sketch

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QuantileSketch n={self.count} centroids={self.centroid_count()} "
            f"min={self.min} max={self.max}>"
        )

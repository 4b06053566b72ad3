"""Tests for the mergeable quantile sketch.

The telemetry layer's correctness rests on two properties pinned here:

* **merge algebra** — folding sketches is associative and commutative,
  with the empty sketch as identity, and (for integer observations,
  below the compression bound) the serialized result is byte-identical
  no matter how the sample stream was partitioned.  This is what makes
  the parallel engine's merged snapshot equal the serial run's.
* **rank accuracy** — ``quantile(q)`` returns the mean of the centroid
  containing the sample of rank ``q*(n-1)``, so the estimate matches
  the exact percentile up to the sketch's relative value resolution
  (``~2*accuracy``), independent of sample count.  Hypothesis drives
  this against exact sorted-sample references.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.sketch import DEFAULT_QUANTILES, QuantileSketch
from repro.trace.metrics import MetricsRegistry


def make(values, **kwargs):
    sketch = QuantileSketch(**kwargs)
    for value in values:
        sketch.add(value)
    return sketch


def canonical(sketch):
    """Byte-comparable serialized form."""
    return json.dumps(sketch.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_empty_sketch_reads_as_empty():
    sketch = QuantileSketch()
    assert len(sketch) == 0
    assert sketch.quantile(0.5) is None
    assert sketch.mean is None
    assert sketch.centroid_count() == 0
    assert sketch.quantiles() == {"p50": None, "p90": None, "p95": None, "p99": None}


def test_extremes_are_exact():
    sketch = make([7, 3, 3, 9, 100, 0])
    assert sketch.quantile(0.0) == 0  # exact min
    assert sketch.quantile(1.0) == 100  # exact max
    assert sketch.min == 0 and sketch.max == 100
    assert len(sketch) == 6
    assert sketch.total == sum([7, 3, 3, 9, 100, 0])
    assert sketch.mean == pytest.approx(sum([7, 3, 3, 9, 100]) / 6)


def test_heavy_ties_do_not_smear_the_median():
    # 100 zeros and one huge outlier: p50 (and even p99) must be 0 —
    # interpolating across the zero centroid would report ~1e10.
    sketch = make([0] * 100 + [10**12])
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(0.99) == 0.0
    assert sketch.quantile(1.0) == 10**12


def test_quantile_labels():
    sketch = make([1, 2, 3])
    assert set(sketch.quantiles().keys()) == {"p50", "p90", "p95", "p99"}
    assert set(sketch.quantiles([0.5, 0.999]).keys()) == {"p50", "p99_9"}
    assert DEFAULT_QUANTILES == (0.5, 0.9, 0.95, 0.99)


def test_validation():
    with pytest.raises(ValueError):
        QuantileSketch(accuracy=0.0)
    with pytest.raises(ValueError):
        QuantileSketch(accuracy=1.5)
    with pytest.raises(ValueError):
        QuantileSketch(max_centroids=2)
    sketch = QuantileSketch()
    with pytest.raises(ValueError):
        sketch.add(1, weight=0)
    sketch.add(1)
    with pytest.raises(ValueError):
        sketch.quantile(1.5)
    with pytest.raises(ValueError):
        sketch.merge(QuantileSketch(accuracy=0.1))


def test_weighted_add_equals_repeated_add():
    repeated = make([42] * 5 + [-7] * 3)
    weighted = QuantileSketch()
    weighted.add(42, weight=5)
    weighted.add(-7, weight=3)
    assert canonical(weighted) == canonical(repeated)


# ----------------------------------------------------------------------
# rank accuracy vs exact percentiles
# ----------------------------------------------------------------------
def assert_tracks_exact(sketch, sorted_samples, q, accuracy=0.005):
    """The estimate matches the floor-rank exact sample to ~2*accuracy."""
    est = sketch.quantile(q)
    ref = sorted_samples[math.floor(q * (len(sorted_samples) - 1))]
    gamma = (1.0 + accuracy) / (1.0 - accuracy)
    tolerance = abs(ref) * (gamma - 1.0) + 1e-9
    assert ref - tolerance <= est <= ref + tolerance, (
        f"q={q}: estimate {est} not within {tolerance} of exact rank value {ref}"
    )


@given(
    samples=st.lists(
        st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=300
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_quantiles_track_exact_percentiles(samples, q):
    sketch = make(samples)
    assert_tracks_exact(sketch, sorted(samples), q)


def test_quantiles_track_numpy_percentiles_on_a_latency_shape():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(7)
    # log-normal-ish nanosecond latencies with a heavy zero mode, the
    # shape the queue-delay sketches actually see
    samples = [0] * 2000 + [int(math.exp(rng.gauss(10, 2))) for _ in range(8000)]
    rng.shuffle(samples)
    sketch = make(samples)
    ordered = sorted(samples)
    for q in (0.5, 0.9, 0.95, 0.99):
        est = sketch.quantile(q)
        # within 1% *rank* error of the exact percentile: bracketed by
        # the exact samples one rank-percent either side, widened by the
        # sketch's relative value resolution
        lo = ordered[max(0, math.floor((q - 0.01) * (len(ordered) - 1)))]
        hi = ordered[min(len(ordered) - 1, math.ceil((q + 0.01) * (len(ordered) - 1)))]
        assert lo * 0.989 - 1e-9 <= est <= hi * 1.011 + 1e-9
        # and the numpy percentile itself sits inside the same bracket
        exact = float(numpy.percentile(ordered, q * 100))
        assert lo <= exact <= hi


# ----------------------------------------------------------------------
# merge algebra (satellite: associativity/commutativity/identity)
# ----------------------------------------------------------------------
@given(
    samples=st.lists(
        st.integers(min_value=-(10**9), max_value=10**9), max_size=150
    ),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_merge_is_associative_commutative_and_partition_invariant(samples, seed):
    rng = random.Random(seed)
    parts = [[], [], []]
    for value in samples:
        parts[rng.randrange(3)].append(value)
    a, b, c = parts

    whole = canonical(make(samples))
    left = canonical(make(a).merge(make(b)).merge(make(c)))
    right = canonical(make(a).merge(make(b).merge(make(c))))
    commuted = canonical(make(c).merge(make(a)).merge(make(b)))
    # byte-identical no matter the association, order, or partitioning
    assert left == right == commuted == whole


def test_empty_sketch_is_the_merge_identity():
    samples = [5, 0, -3, 10**6, 5]
    populated = canonical(make(samples))
    assert canonical(make(samples).merge(QuantileSketch())) == populated
    assert canonical(QuantileSketch().merge(make(samples))) == populated


def test_merge_accepts_the_serialized_form():
    a, b = make([1, 2, 3]), make([4, 5])
    merged = make([1, 2, 3]).merge(b.to_dict())
    assert canonical(merged) == canonical(a.merge(b))


def test_serialization_round_trip_is_exact():
    sketch = make([0, 0, 1, -17, 10**9, 3, 3, 3])
    wire = json.loads(json.dumps(sketch.to_dict()))
    revived = QuantileSketch.from_dict(wire)
    assert canonical(revived) == canonical(sketch)
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert revived.quantile(q) == sketch.quantile(q)


# ----------------------------------------------------------------------
# compression bound
# ----------------------------------------------------------------------
def test_collapse_respects_the_bound_and_keeps_exact_moments():
    values = [2**k for k in range(40)] + [-(3**k) for k in range(20)]
    sketch = make(values, max_centroids=8)
    assert len(sketch.pos) + len(sketch.neg) <= 8
    # counts and sums are exact even after collapsing
    assert sketch.count == len(values)
    assert sketch.total == sum(values)
    assert sketch.min == min(values) and sketch.max == max(values)
    # collapsing folds low-magnitude centroids upward, so the upper
    # quantiles keep their resolution
    ordered = sorted(values)
    assert_tracks_exact(sketch, ordered, 0.99)
    assert sketch.quantile(0.5) is not None


def test_merge_collapses_to_the_tighter_bound():
    a = make([2**k for k in range(30)], max_centroids=64)
    b = make([5**k for k in range(10)], max_centroids=8)
    a.merge(b)
    assert a.max_centroids == 8
    assert len(a.pos) + len(a.neg) <= 8
    assert a.count == 40


# ----------------------------------------------------------------------
# sketches inside the metrics registry
# ----------------------------------------------------------------------
def test_merged_sketch_selects_by_prefix_without_mutating():
    registry = MetricsRegistry()
    for name, values in (
        ("eventloop.queue_delay_ns.main", (1, 2, 3)),
        ("eventloop.queue_delay_ns.worker", (10, 20)),
        ("kernel.latency_ns", (999,)),
    ):
        histogram = registry.histogram(name)
        for value in values:
            histogram.add(value)

    merged = registry.merged_sketch("eventloop.queue_delay_ns.")
    assert merged.count == 5
    assert merged.max == 20  # kernel sketch not included
    # reading never mutates the stored sketches
    assert registry.snapshot()["histograms"]["eventloop.queue_delay_ns.main"]["count"] == 3
    assert registry.merged_sketch("no.such.prefix") is None

"""Tests for ExperimentEngine.stream: the bounded-window streaming path.

The contract: ``stream`` yields exactly what ``run`` returns, in the
same submission order and with the same merged telemetry, while never
materialising more than a bounded in-flight window of the cell
iterator — the property the population sweeps and fuzz campaigns rest on.
"""

import json

from repro.harness import Cell, ExperimentEngine, ResultCache
from repro.harness.parallel import cell_kind
from repro.runtime.rng import hash_seed
from repro.trace import Tracer, capture


@cell_kind("stream-probe")
def run_probe_cell(index: int, seed: int = 0, fail: bool = False) -> dict:
    """A cheap one-item cell: the engine tests count cells, not pages."""
    if fail:
        raise ValueError(f"bogus probe cell {index}")
    return {"index": index, "value": hash_seed(seed, f"probe:{index}")}


def probe_cells(n, seed=0):
    """Lazily yield ``n`` probe cells."""
    for index in range(n):
        yield Cell("stream-probe", {"index": index, "seed": seed})


def cells_for(n, seed=0):
    return list(probe_cells(n, seed=seed))


def as_json(results):
    return json.dumps(
        [
            {
                "label": r.cell.label(),
                "ok": r.ok,
                "payload": r.payload,
                "error": r.error,
            }
            for r in results
        ],
        sort_keys=True,
    )


class CountingCells:
    """A cell iterator that counts how far the consumer pulled it."""

    def __init__(self, n, seed=0):
        self.source = probe_cells(n, seed=seed)
        self.pulled = 0

    def __iter__(self):
        for cell in self.source:
            self.pulled += 1
            yield cell


# ----------------------------------------------------------------------
# stream == run, byte for byte
# ----------------------------------------------------------------------
def test_stream_equals_run_serially():
    batch = cells_for(40)
    ran = ExperimentEngine().run(batch)
    streamed = list(ExperimentEngine().stream(iter(batch)))
    assert as_json(streamed) == as_json(ran)


def test_stream_equals_run_with_a_pool():
    batch = cells_for(40)
    ran = ExperimentEngine().run(batch)
    engine = ExperimentEngine(workers=2, chunk_size=4)
    streamed = list(engine.stream(iter(batch)))
    assert as_json(streamed) == as_json(ran)
    assert engine.computed == len(batch)


def test_stream_counts_errors_per_cell_without_dying():
    batch = cells_for(5) + [Cell("stream-probe", {"index": 5, "fail": True})]
    engine = ExperimentEngine()
    results = list(engine.stream(iter(batch)))
    assert [r.ok for r in results] == [True] * 5 + [False]
    assert "bogus" in results[-1].error
    assert engine.errors == 1


# ----------------------------------------------------------------------
# bounded window: the iterator is pulled lazily
# ----------------------------------------------------------------------
def test_serial_stream_pulls_one_cell_per_result():
    counting = CountingCells(1000)
    stream = ExperimentEngine().stream(counting)
    for _ in range(5):
        next(stream)
    assert counting.pulled == 5
    stream.close()


def test_pool_stream_keeps_the_window_bounded():
    counting = CountingCells(1000)
    engine = ExperimentEngine(workers=2, chunk_size=2)
    stream = engine.stream(counting, window=3)
    first = next(stream)
    assert first.ok
    # at most (window + a chunk being assembled + one yielded) chunks of
    # cells have been admitted; nowhere near the thousand-cell iterator
    assert counting.pulled <= (3 + 2) * 2
    stream.close()


def test_closing_the_stream_stops_admission():
    counting = CountingCells(1000)
    engine = ExperimentEngine(workers=2, chunk_size=2)
    consumed = 0
    for _result in engine.stream(counting, window=2):
        consumed += 1
        if consumed == 4:
            break  # closes the generator
    pulled_at_break = counting.pulled
    assert pulled_at_break < 50
    # nothing pulls the iterator after the generator closed
    assert counting.pulled == pulled_at_break


# ----------------------------------------------------------------------
# cache interaction
# ----------------------------------------------------------------------
def test_stream_serves_a_warm_rerun_from_cache(tmp_path):
    batch = cells_for(12)
    cold = ExperimentEngine(cache=ResultCache(tmp_path))
    first = list(cold.stream(iter(batch)))
    assert cold.computed == 12 and cold.cache_hits == 0

    warm = ExperimentEngine(cache=ResultCache(tmp_path))
    second = list(warm.stream(iter(batch)))
    assert warm.computed == 0 and warm.cache_hits == 12
    assert as_json(second) == as_json(first)
    assert all(r.cached for r in second)


def test_pool_stream_preserves_order_with_mixed_hits_and_misses(tmp_path):
    batch = cells_for(20)
    seed_engine = ExperimentEngine(cache=ResultCache(tmp_path))
    # warm only the odd cells, so the pool sees interleaved hits/misses
    list(seed_engine.stream(c for i, c in enumerate(batch) if i % 2))

    engine = ExperimentEngine(workers=2, chunk_size=2, cache=ResultCache(tmp_path))
    results = list(engine.stream(iter(batch)))
    assert [r.cell.params["index"] for r in results] == [
        c.params["index"] for c in batch
    ]
    assert engine.cache_hits == 10 and engine.computed == 10
    assert as_json(results) == as_json(ExperimentEngine().run(batch))


# ----------------------------------------------------------------------
# telemetry: streamed metrics match across worker counts
# ----------------------------------------------------------------------
def test_stream_metrics_are_identical_across_worker_counts():
    batch = cells_for(24)
    serial_tracer, pool_tracer = Tracer(), Tracer()
    with capture(serial_tracer):
        list(ExperimentEngine().stream(iter(batch)))
    with capture(pool_tracer):
        list(ExperimentEngine(workers=2, chunk_size=4).stream(iter(batch)))
    serial = serial_tracer.metrics.snapshot()
    pooled = pool_tracer.metrics.snapshot()
    assert serial["counters"]["engine.cells"] == 24
    assert pooled["counters"]["engine.cells"] == 24
    assert pooled["counters"]["engine.computed"] == serial["counters"]["engine.computed"]

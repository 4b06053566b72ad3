"""Tests for the parallel experiment engine and the result cache.

The contract under test: every experiment cell is a pure deterministic
function, so (a) a sharded run is byte-identical to a serial one, (b) a
cached result is byte-identical to a fresh computation, and (c) one
poisoned cell reports per-cell instead of killing the pool.
"""

import json
from pathlib import Path

from repro.harness import (
    Cell,
    ExperimentEngine,
    ResultCache,
    figure2_script_parsing,
    run_table1,
    table2_svg_loopscan,
)
from repro.harness.perf import dromaeo_overhead, figure3_cdf
from repro.trace import Tracer, capture

from .test_harness import scale

# A small but heterogeneous Table I slice: one CVE row, one timing row.
ATTACKS = ["cve-2018-5092", "css-animation"]
DEFENSES = ["legacy-chrome", "jskernel"]


def as_json(result):
    return json.dumps(
        {"matrix": result.matrix, "details": result.details},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# parallel == serial, byte for byte
# ----------------------------------------------------------------------
def test_parallel_table1_is_byte_identical_to_serial():
    serial = run_table1(attacks=ATTACKS, defenses=DEFENSES)
    sharded = run_table1(attacks=ATTACKS, defenses=DEFENSES, parallel=2)
    assert as_json(sharded) == as_json(serial)
    assert sharded.errors == [] and serial.errors == []


def test_parallel_table1_merges_worker_metrics_into_ambient_tracer():
    serial_tracer, parallel_tracer = Tracer(), Tracer()
    with capture(serial_tracer):
        serial = run_table1(attacks=ATTACKS, defenses=DEFENSES)
    with capture(parallel_tracer):
        sharded = run_table1(attacks=ATTACKS, defenses=DEFENSES, parallel=2)
    assert as_json(sharded) == as_json(serial)
    assert serial_tracer.metrics.snapshot()["counters"]
    assert parallel_tracer.metrics.snapshot() == serial_tracer.metrics.snapshot()


def test_parallel_perf_sweeps_match_serial():
    sizes = [1 * 1024 * 1024, 4 * 1024 * 1024]
    assert figure2_script_parsing(sizes=sizes, defenses=DEFENSES) == figure2_script_parsing(
        sizes=sizes, defenses=DEFENSES, parallel=2
    )
    assert table2_svg_loopscan(defenses=DEFENSES, runs=2) == table2_svg_loopscan(
        defenses=DEFENSES, runs=2, parallel=2
    )
    assert figure3_cdf(site_count=3, visits=1, configs=DEFENSES) == figure3_cdf(
        site_count=3, visits=1, configs=DEFENSES, parallel=2
    )


# ----------------------------------------------------------------------
# the result cache
# ----------------------------------------------------------------------
def test_warm_cache_rerun_recomputes_zero_cells(tmp_path):
    cold_cache = ResultCache(tmp_path)
    cold = run_table1(attacks=ATTACKS, defenses=DEFENSES, cache=cold_cache)
    assert cold.computed_cells == len(ATTACKS) * len(DEFENSES)
    assert cold.cached_cells == 0
    assert cold_cache.stores == cold.computed_cells

    warm_cache = ResultCache(tmp_path)
    warm = run_table1(attacks=ATTACKS, defenses=DEFENSES, cache=warm_cache)
    assert warm.computed_cells == 0
    assert warm.cached_cells == len(ATTACKS) * len(DEFENSES)
    assert warm_cache.hits == warm.cached_cells
    assert as_json(warm) == as_json(cold)


def test_cache_invalidated_by_seed_change(tmp_path):
    run_table1(attacks=ATTACKS, defenses=DEFENSES, seed=0, cache=ResultCache(tmp_path))
    other_seed = run_table1(
        attacks=ATTACKS, defenses=DEFENSES, seed=1, cache=ResultCache(tmp_path)
    )
    assert other_seed.computed_cells == len(ATTACKS) * len(DEFENSES)
    assert other_seed.cached_cells == 0


def test_cache_invalidated_by_code_fingerprint_change(tmp_path, monkeypatch):
    run_table1(attacks=ATTACKS, defenses=DEFENSES, cache=ResultCache(tmp_path))
    monkeypatch.setattr("repro.harness.cache.code_fingerprint", lambda: "deadbeef")
    changed = run_table1(attacks=ATTACKS, defenses=DEFENSES, cache=ResultCache(tmp_path))
    assert changed.computed_cells == len(ATTACKS) * len(DEFENSES)
    assert changed.cached_cells == 0


def test_corrupt_cache_entry_is_a_miss_not_a_crash(tmp_path):
    """A truncated entry and a non-dict entry are each a miss: the cell is
    recomputed and re-stored, serially and through the pool alike."""
    cells = [
        Cell("table1", {"attack": attack, "defense": defense, "seed": 0})
        for attack in ATTACKS
        for defense in DEFENSES
    ]
    cold = ExperimentEngine(cache=ResultCache(tmp_path / "cold")).run(cells)
    expected = [json.dumps(r.payload, sort_keys=True) for r in cold]
    for workers in (0, 2):
        root = tmp_path / f"workers-{workers}"
        ExperimentEngine(cache=ResultCache(root)).run(cells)
        cache = ResultCache(root)
        truncated, emptied = (Path(cache.path(cache.key(c.kind, c.params))) for c in cells[:2])
        truncated.write_text(truncated.read_text()[: truncated.stat().st_size // 2])
        emptied.write_text("[]")

        engine = ExperimentEngine(workers=workers, cache=cache)
        warm = engine.run(cells)
        assert [r.cached for r in warm] == [False, False, True, True]
        assert (engine.computed, engine.cache_hits) == (2, 2)
        assert (cache.misses, cache.hits, cache.stores) == (2, 2, 2)
        assert [json.dumps(r.payload, sort_keys=True) for r in warm] == expected
        # both bad entries now hold the recomputed payload
        for path, payload in zip((truncated, emptied), expected):
            stored = json.loads(path.read_text())["payload"]
            assert json.dumps(stored, sort_keys=True) == payload


# ----------------------------------------------------------------------
# per-cell error capture
# ----------------------------------------------------------------------
def test_poisoned_cell_reports_without_killing_the_pool():
    cells = [
        Cell("table1", {"attack": "cve-2018-5092", "defense": "jskernel", "seed": 0}),
        Cell("table1", {"attack": "no-such-attack", "defense": "jskernel", "seed": 0}),
        Cell("table1", {"attack": "cve-2018-5092", "defense": "legacy-chrome", "seed": 0}),
    ]
    engine = ExperimentEngine(workers=2)
    results = engine.run(cells)
    assert [r.ok for r in results] == [True, False, True]
    assert "no-such-attack" in results[1].error
    assert engine.errors == 1 and engine.computed == 3


def test_unknown_cell_kind_is_a_per_cell_error():
    results = ExperimentEngine().run([Cell("definitely-not-registered", {})])
    assert not results[0].ok
    assert "unknown cell kind" in results[0].error


def test_poisoned_table1_cell_surfaces_in_result_errors():
    result = run_table1(attacks=["no-such-attack", "cve-2018-5092"], defenses=["jskernel"])
    assert len(result.errors) == 1 and "no-such-attack" in result.errors[0]
    assert result.details["no-such-attack"]["jskernel"].startswith("error:")
    # the poisoned row can never read as defended
    assert result.matrix["no-such-attack"]["jskernel"] is False
    # the healthy cell still ran
    assert result.matrix["cve-2018-5092"]["jskernel"] is True


def test_failed_cells_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    run_table1(attacks=["no-such-attack"], defenses=["jskernel"], cache=cache)
    assert cache.stores == 0
    retry = run_table1(attacks=["no-such-attack"], defenses=["jskernel"],
                       cache=ResultCache(tmp_path))
    assert retry.computed_cells == 1  # still recomputed, not served from cache


# ----------------------------------------------------------------------
# harness correctness fixes riding along (ISSUE satellites)
# ----------------------------------------------------------------------
def test_agreement_skips_cells_outside_the_paper_matrix():
    # jskernel-nocve is an ablation defense and sab-timer an extension
    # attack; neither appears in the reconstructed Table I, and both used
    # to crash agreement()/disagreements() with a KeyError
    result = run_table1(
        attacks=["cve-2018-5092", "sab-timer"],
        defenses=["legacy-chrome", "jskernel-nocve"],
    )
    assert result.agreement() == 1.0  # only the comparable cell counts
    assert result.disagreements() == []


def test_agreement_on_fully_non_comparable_run_is_vacuously_clean():
    result = run_table1(attacks=["sab-timer"], defenses=["jskernel-nodet"])
    assert result.agreement() == 1.0
    assert result.disagreements() == []


def _traced(experiment):
    """Run ``experiment`` under a tracer; its metrics must be non-empty."""
    tracer = Tracer()
    with capture(tracer):
        report = experiment()
    assert tracer.metrics.snapshot()["counters"]
    return report


def test_table2_no_longer_pollutes_the_table_with_a_metrics_row():
    """A traced report equals the untraced one: no metrics row in Table
    II, no metrics key in Dromaeo.  The metrics travel out-of-band via
    the ambient tracer."""
    table = _traced(lambda: table2_svg_loopscan(defenses=DEFENSES, runs=1))
    assert set(table) == set(DEFENSES)
    assert table == table2_svg_loopscan(defenses=DEFENSES, runs=1)
    assert _traced(dromaeo_overhead) == dromaeo_overhead()


def test_bench_scale_reads_env_lazily(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    assert scale("medium", "full") == "medium"
    # flipping the env var after import must take effect (it used to be
    # frozen into a module-level FULL constant at import time)
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert scale("medium", "full") == "full"

"""Tests for the seeded population model (repro.workloads.population).

Three properties carry the subsystem: every page is a pure function of
``(rank, seed)`` so workers regenerate instead of receiving; the model
fast path (``site_stats`` + closed form) equals the full description
path exactly; and a sweep's resident state is bounded by the stream
window + sketches, independent of population size — verified here by
counting the cells pulled but not yet aggregated, and by comparing the
aggregate's pickled size at a quarter of the sweep and at its end.
"""

import hashlib
import json
import math
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import ResultCache
from repro.harness.parallel import Cell, CellResult
from repro.runtime.rng import hash_seed
from repro.telemetry import telemetry_session
from repro.workloads import population
from repro.workloads.population import (
    ARCHETYPES,
    DEFAULT_BROWSER_MIX,
    PAGE_BLOCK,
    PopulationAggregate,
    PopulationModel,
    archetype_for_rank,
    band_for_rank,
    config_for_rank,
    estimate_load_ms,
    page_for,
    population_sweep,
    run_population_page,
    session_stream,
    zipf_rank,
)
from repro.workloads.sites import SITE_PROFILES, generate_site, site_stats


# ----------------------------------------------------------------------
# purity: pages are functions of (rank, seed)
# ----------------------------------------------------------------------
def test_page_for_is_pure_and_seeded():
    one = page_for(1234, seed=7)
    two = page_for(1234, seed=7)
    assert one.host == two.host
    assert [r.size_bytes for r in one.resources] == [r.size_bytes for r in two.resources]
    assert one.task_pattern == two.task_pattern
    assert one.dom_nodes == two.dom_nodes
    other = page_for(1234, seed=8)
    assert (other.host, other.dom_nodes, other.task_pattern) != (
        one.host, one.dom_nodes, one.task_pattern
    )


def test_page_host_carries_archetype_and_rank():
    page = page_for(42, seed=0)
    archetype = archetype_for_rank(42, 0)
    assert page.host == f"{archetype}0000042.example"


def _assert_site_stats_match(host, seed, weight):
    # site_stats replays randint/uniform from getrandbits/random; the
    # real generator is the reference, compared exactly
    site = generate_site(host, seed, weight)
    task_ms = 0.0
    for _delay, cost in site.task_pattern:
        task_ms += cost
    assert site_stats(hash_seed(seed, host), weight) == (
        site.total_bytes(),
        sum(r.size_bytes for r in site.resources if r.kind == "script"),
        site.dom_nodes,
        task_ms,
    )


@pytest.mark.parametrize("host,seed,weight", [
    ("news0000001.example", 11, "heavy"),
    ("docs0001234.example", 0, "light"),
    ("shop0099999.example", 5, "medium"),
])
def test_site_stats_matches_the_generated_site(host, seed, weight):
    _assert_site_stats_match(host, seed, weight)


@settings(max_examples=200, deadline=None)
@given(
    host=st.text(min_size=1, max_size=24),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    weight=st.sampled_from(sorted(SITE_PROFILES)),
)
def test_site_stats_matches_the_generated_site_for_any_input(host, seed, weight):
    _assert_site_stats_match(host, seed, weight)


@pytest.mark.parametrize("rank", [0, 7, 999, 43_210, 999_999])
def test_model_mode_equals_the_closed_form_over_the_full_page(rank):
    seed = 3
    outcome = run_population_page(rank, seed)
    page = page_for(rank, seed)
    archetype = archetype_for_rank(rank, seed)
    config = config_for_rank(rank, seed)
    visit_seed = hash_seed(seed, f"pop:visit:{rank}:{config}:0")
    expected = estimate_load_ms(page, config, visit_seed, archetype)
    assert outcome["load_ms"] == round(expected, 3)
    assert outcome["archetype"] == archetype
    assert outcome["config"] == config


def _reference_page(rank, seed, size, config, visit):
    """A model-mode visit from the plain f-string labels, ``hash_seed``
    and the full ``generate_site`` description."""
    def draw(key, label):
        return population._uniform(hash_seed(key, label))

    archetype = population._weighted(
        draw(seed, f"pop:arch:{rank}"), population.BAND_MIX[band_for_rank(rank, size)]
    )
    chosen = config or population._weighted(
        draw(seed, f"pop:browser:{rank}"), DEFAULT_BROWSER_MIX
    )
    site = generate_site(
        f"{archetype}{rank:07d}.example",
        hash_seed(seed, f"pop:site:{rank}"),
        ARCHETYPES[archetype]["weight"],
    )
    visit_seed = hash_seed(seed, f"pop:visit:{rank}:{chosen}:{visit}")
    load_ms = estimate_load_ms(site, chosen, visit_seed, archetype)
    return {"rank": rank, "archetype": archetype, "config": chosen,
            "load_ms": round(load_ms, 3)}


@settings(max_examples=200, deadline=None)
@given(
    # past 10**7 the host's zero-padded rank grows an eighth digit
    rank=st.integers(0, 2 * 10**7),
    seed=st.integers(0, 2**64 - 1) | st.integers(-(2**70), 2**70),
    config=st.sampled_from(["", *population.MODEL_CONFIG_OVERHEAD]) | st.text(max_size=6),
    visit=st.integers(0, 10**6),
)
def test_model_page_equals_the_plain_label_reference(rank, seed, config, visit):
    size = 2 * 10**7 + 1
    expected = _reference_page(rank, seed, size, config, visit)
    assert run_population_page(rank, seed, size=size, config=config, visit=visit) == expected


def test_sim_mode_runs_the_simulator_and_stays_deterministic():
    one = run_population_page(3, seed=1, size=100, mode="sim")
    two = run_population_page(3, seed=1, size=100, mode="sim")
    assert one == two
    assert one["load_ms"] > 0


# ----------------------------------------------------------------------
# the rank distribution
# ----------------------------------------------------------------------
def _reference_weighted(seed, label, choices):
    """The pick as first written: the shares re-summed on every call."""
    total = sum(share for _name, share in choices)
    point = population._uniform(hash_seed(seed, label)) * total
    acc = 0.0
    for name, share in choices:
        acc += share
        if point < acc:
            return name
    return choices[-1][0]


_SHARES = st.integers(0, 50) | st.floats(0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    label=st.text(max_size=24),
    mix=st.lists(st.tuples(st.text(min_size=1, max_size=8), _SHARES), min_size=1, max_size=8),
)
def test_weighted_pick_equals_the_resumming_formula(seed, label, mix):
    expected = _reference_weighted(seed, label, mix)
    draw = population._uniform(hash_seed(seed, label))
    assert population._weighted(draw, mix) == expected
    mix = tuple(mix)
    assert population._weighted(draw, mix) == expected
    assert population._weighted(draw, mix) == expected  # from the cache




def test_band_boundaries():
    assert band_for_rank(0, 1000) == "head"
    assert band_for_rank(9, 1000) == "head"
    assert band_for_rank(10, 1000) == "torso"
    assert band_for_rank(199, 1000) == "torso"
    assert band_for_rank(200, 1000) == "tail"
    assert band_for_rank(999, 1000) == "tail"
    with pytest.raises(ValueError):
        band_for_rank(1000, 1000)


def test_browser_mix_is_respected_in_aggregate():
    size = 2000
    counts = {}
    for rank in range(size):
        config = config_for_rank(rank, seed=0)
        counts[config] = counts.get(config, 0) + 1
    for config, share in DEFAULT_BROWSER_MIX:
        assert counts.get(config, 0) == pytest.approx(share * size, rel=0.25), config


def test_archetypes_follow_the_band_mix():
    size = 5000
    tail = {}
    for rank in range(size // 5, size):  # the tail band
        arch = archetype_for_rank(rank, seed=0, size=size)
        tail[arch] = tail.get(arch, 0) + 1
    # blogs dominate the tail (weight 4 of 10 in BAND_MIX["tail"])
    assert tail["blog"] == max(tail.values())
    assert set(tail) <= set(ARCHETYPES)


def test_zipf_rank_is_log_uniform_and_clamped():
    assert zipf_rank(0.0, 1_000_000) == 0
    assert zipf_rank(1.0, 1_000_000) == 999_999
    assert zipf_rank(0.5, 1_000_000) == 999  # sqrt(1e6) - 1
    # the head is visited far more often than uniform would give it
    hits = sum(1 for i in range(1000) if zipf_rank(i / 1000.0, 1_000_000) < 10_000)
    assert hits > 300
    with pytest.raises(ValueError):
        zipf_rank(0.5, 0)


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
def test_session_stream_is_deterministic_with_monotone_arrivals():
    model = PopulationModel(size=10_000, seed=9)
    first = list(session_stream(model, count=50))
    again = list(session_stream(model, count=50))
    assert first == again
    arrivals = [s.arrival_s for s in first]
    assert arrivals == sorted(arrivals)
    assert all(s.pages and min(s.pages) >= 0 and max(s.pages) < 10_000 for s in first)
    assert {s.config for s in first} <= {name for name, _ in DEFAULT_BROWSER_MIX}


def test_session_stream_is_a_prefix_stable_renewal_process():
    model = PopulationModel(size=10_000, seed=9)
    short = list(session_stream(model, count=10))
    long = list(session_stream(model, count=25))
    assert long[:10] == short


# ----------------------------------------------------------------------
# bounded-memory aggregation
# ----------------------------------------------------------------------
def test_sweep_report_balances_and_merges_by_config():
    report = population_sweep(400, seed=1)
    assert report["pages"] == 400
    assert report["failed_pages"] == 0
    # computed counts cells, and a cell is a block of page visits
    assert report["computed"] == math.ceil(400 / PAGE_BLOCK)
    assert report["errors"] == []
    assert sum(c["count"] for c in report["configs"].values()) == 400
    assert sum(a["count"] for a in report["archetypes"].values()) == 400
    for summary in report["configs"].values():
        assert summary["mean_ms"] > 0


def test_sweep_is_identical_serial_and_parallel():
    serial = population_sweep(120, seed=4)
    pooled = population_sweep(120, seed=4, parallel=2)
    assert pooled == serial


def test_warm_rerun_serves_every_block_from_the_cache(tmp_path):
    cold = population_sweep(300, seed=2, cache=ResultCache(tmp_path))
    warm = population_sweep(300, seed=2, cache=ResultCache(tmp_path))
    assert (cold["computed"], cold["cache_hits"], cold["cached"]) == (2, 0, 0)
    # cache_hits counts blocks, cached counts their pages
    assert (warm["computed"], warm["cache_hits"], warm["cached"]) == (0, 2, 300)
    for report in (cold, warm):
        for key in ("computed", "cache_hits", "cached"):
            report.pop(key)
    assert warm == cold


def _direct_fold(visits, seed, size):
    """The sweep's report computed page by page, without the engine."""
    aggregate = PopulationAggregate()
    payloads = [
        run_population_page(rank, seed, size=size, config=config, visit=visit)
        for rank, config, visit in visits
    ]
    aggregate.add(CellResult(Cell("population", {"pages": visits}), payload=payloads))
    return aggregate.report()


MIX = (("jskernel", 0.5), ("tor", 0.3), ("legacy-chrome", 0.2))


def _scan(size, seed, visits=1, mix=None):
    return [
        [rank, "" if mix is None else config_for_rank(rank, seed, mix), visit]
        for rank in range(size)
        for visit in range(visits)
    ]


def _session_visits(size, seed, sessions):
    model = PopulationModel(size=size, seed=seed)
    return [
        [rank, session.config, session.index * 131 + visit]
        for session in session_stream(model, count=sessions)
        for visit, rank in enumerate(session.pages)
    ]


SIZE = PAGE_BLOCK + 45  # one full block and one short one


@pytest.mark.parametrize("parallel", [None, 2], ids=["serial", "pool"])
@pytest.mark.parametrize(
    "kwargs,visits",
    [
        ({}, _scan(SIZE, 6)),
        ({"visits": 2}, _scan(SIZE, 6, visits=2)),
        ({"browser_mix": MIX}, _scan(SIZE, 6, mix=MIX)),
        ({"sessions": 90}, _session_visits(SIZE, 6, 90)),
    ],
    ids=["scan", "visits", "mix", "sessions"],
)
def test_sweep_equals_a_direct_fold_of_its_pages(kwargs, visits, parallel):
    report = population_sweep(SIZE, seed=6, parallel=parallel, **kwargs)
    expected = _direct_fold(visits, 6, SIZE)
    assert report["computed"] == math.ceil(len(visits) / PAGE_BLOCK)
    for key in ("size", "seed", "mode", "sessions", "computed", "cache_hits"):
        report.pop(key)
    assert report == expected
    assert report["pages"] == len(visits) > PAGE_BLOCK


with open(
    os.path.join(os.path.dirname(__file__), "golden", "population_digests.json"),
    encoding="utf-8",
) as _handle:
    _GOLDEN = {k: v for k, v in json.load(_handle).items() if not k.startswith("_")}


@pytest.mark.parametrize("shape", sorted(_GOLDEN))
def test_sweep_report_bytes_are_pinned(shape):
    """The report `population --size 3000 --seed 3 --no-cache --json`
    prints hashes to its pinned digest for each sweep shape, so no page
    seed, pick or jitter draw has moved."""
    entry = _GOLDEN[shape]
    kwargs = dict(entry["kwargs"])
    if "browser_mix" in kwargs:
        kwargs["browser_mix"] = tuple(tuple(pair) for pair in kwargs["browser_mix"])
    report = population_sweep(3000, seed=3, cache=None, **kwargs)
    assert report["pages"] == entry["pages"]
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["sha256"]


def test_pool_sweep_fans_blocks_out_over_several_shards():
    with telemetry_session("population") as telem:
        report = population_sweep(2 * PAGE_BLOCK + 1, seed=0, parallel=2)
    assert report["computed"] == 3
    assert telem.shards["total"] > 1


def test_pool_sim_sweep_fans_single_visits_out_over_several_shards():
    # a sim-mode cell is one visit, so a short sweep still feeds every worker
    serial = population_sweep(20, seed=0, mode="sim")
    with telemetry_session("population") as telem:
        pooled = population_sweep(20, seed=0, mode="sim", parallel=2)
    assert pooled == serial
    assert pooled["computed"] == pooled["pages"] == 20
    assert telem.shards["total"] > 1


def test_a_failing_block_is_one_error_and_its_pages_stay_counted(monkeypatch):
    run_page = population.run_population_page

    def poisoned(rank, *args, **kwargs):
        if rank == PAGE_BLOCK + 3:
            raise RuntimeError("poisoned page")
        return run_page(rank, *args, **kwargs)

    monkeypatch.setattr(population, "run_population_page", poisoned)
    size = 2 * PAGE_BLOCK + 10
    report = population_sweep(size, seed=0)
    assert report["failed_pages"] == PAGE_BLOCK
    assert report["pages"] + report["failed_pages"] == size
    assert report["computed"] == 3
    [line] = report["errors"]
    assert line.startswith("population(") and "RuntimeError: poisoned page" in line
    assert sum(c["count"] for c in report["configs"].values()) == report["pages"]


def test_a_block_label_stays_one_short_line():
    cell = next(population.population_cells(10 * PAGE_BLOCK, seed=0))
    assert len(cell.params["pages"]) == PAGE_BLOCK
    label = cell.label()
    assert len(label) < 200 and "\n" not in label
    assert label.startswith("population(mode='model', pages=[[0, '', 0], ")
    assert label.endswith("...], seed=0, size=2560)")


def test_aggregate_caps_the_error_list():
    class Boom:
        def __init__(self, i):
            self.ok = False
            self.cached = False
            self.error = "boom"
            self.cell = type("C", (), {
                "label": lambda self: f"cell-{i}",
                "params": {"pages": [[i, "", 0], [i, "", 1]]},
            })()

    aggregate = PopulationAggregate(max_errors=3)
    for i in range(10):
        aggregate.add(Boom(i))
    report = aggregate.report()
    assert len(report["errors"]) == 3
    assert report["error_overflow"] == 7
    assert report["pages"] == 0
    assert report["failed_pages"] == 20


# ----------------------------------------------------------------------
# resident state is flat in the population size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("parallel,window", [(None, None), (2, 2)], ids=["serial", "pool"])
def test_sweep_resident_state_is_bounded_independent_of_population_size(
    monkeypatch, parallel, window
):
    """The sweep holds at most the engine's window of blocks, and its
    aggregate's size does not scale with the page count."""
    pages = 32 * PAGE_BLOCK
    # a serial stream holds one block; a pool ships one block per chunk
    # and holds at most ``window`` of them in flight plus one being drained
    bound = (window + 1) * PAGE_BLOCK if parallel else PAGE_BLOCK
    pulled = 0
    sizes = {}
    population_cells = population.population_cells

    def counted_cells(*args, **kwargs):
        nonlocal pulled
        for cell in population_cells(*args, **kwargs):
            pulled += len(cell.params["pages"])
            yield cell

    class WatchedAggregate(PopulationAggregate):
        def add(self, result):
            super().add(result)
            assert pulled - self.pages <= bound, (pulled, self.pages)
            if self.pages in (pages // 4, pages):
                sizes[self.pages] = len(pickle.dumps(vars(self)))

    monkeypatch.setattr(population, "population_cells", counted_cells)
    monkeypatch.setattr(population, "PopulationAggregate", WatchedAggregate)
    report = population_sweep(pages, seed=0, parallel=parallel, window=window)
    assert report["pages"] == pulled == pages
    # 4x the pages must not cost 2x the state: the sketches' centroids
    # are the only per-page residue, and they saturate
    assert sizes[pages] < 2 * sizes[pages // 4], sizes

"""ExperimentEngine input handling on its single ``stream`` path.

Three properties the engine must hold for every worker count: a bad
``window`` is rejected up front, a sized cell list is cut into enough
chunks to reach every worker, and a cell repeated within one run is
computed once when a cache is attached (twice only if it failed).
"""

import json

import pytest

from repro.__main__ import main
from repro.explore.campaign import run_campaign, run_diff_campaign
from repro.harness import Cell, ExperimentEngine, ResultCache
from repro.telemetry import telemetry_session

from .test_streaming_engine import probe_cells


@pytest.mark.parametrize("window", [0, -1, "x"])
@pytest.mark.parametrize("workers", [None, 2])
def test_stream_rejects_a_window_that_is_not_a_positive_integer(workers, window):
    engine = ExperimentEngine(workers=workers)
    with pytest.raises(ValueError, match="window"):
        list(engine.stream(probe_cells(4), window=window))
    assert engine.computed == 0


def test_cli_population_rejects_window_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["population", "--size", "10", "--window", "0", "--no-cache"])
    assert err.value.code == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("campaign", [run_campaign, run_diff_campaign])
def test_parallel_campaign_fans_out_and_matches_serial(campaign):
    kwargs = dict(attack="cve-2018-5092", budget=8, shard_size=2)
    serial = campaign(**kwargs)
    with telemetry_session("fuzz") as telem:
        sharded = campaign(parallel=2, **kwargs)
    assert telem.shards["total"] > 1
    assert json.dumps(sharded, sort_keys=True) == json.dumps(serial, sort_keys=True)


@pytest.mark.parametrize("workers", [None, 2])
def test_repeated_cell_is_computed_once_then_served_from_cache(tmp_path, workers):
    block = [[3, "", 0], [4, "jskernel", 0], [3, "", 1]]
    cell = Cell("population", {"seed": 0, "size": 10, "mode": "model", "pages": block})
    engine = ExperimentEngine(workers=workers, cache=ResultCache(tmp_path))
    first, second = engine.run([cell, cell])
    assert engine.computed == 1 and engine.cache_hits == 1
    assert not first.cached and second.cached
    assert second.payload == first.payload
    assert [page["rank"] for page in first.payload] == [3, 4, 3]


@pytest.mark.parametrize("workers", [None, 2])
def test_a_repeated_failing_cell_is_computed_again(tmp_path, workers):
    # failures are never cached, so the repeat cannot be served as a hit
    cell = Cell("definitely-not-registered", {})
    engine = ExperimentEngine(workers=workers, cache=ResultCache(tmp_path))
    results = engine.run([cell, cell])
    assert [result.ok for result in results] == [False, False]
    assert engine.computed == 2 and engine.errors == 2 and engine.cache_hits == 0

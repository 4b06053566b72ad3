"""The defense × attack cube: overhead profiles, divergence, fixture."""

import json
import os

import pytest

from repro.harness.cube import (
    CUBE_PAIR,
    CubeResult,
    overhead_profile,
    run_cube,
    run_cube_cell,
)
from repro.trace import MetricsRegistry

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "cube_expected.json")
DETBROWSER_TIMING = os.path.join(
    os.path.dirname(__file__), "golden", "detbrowser_timing_expected.json"
)


def load_fixture() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# overhead profiles
# ----------------------------------------------------------------------
def test_overhead_profile_merges_histograms_into_quantiles():
    metrics = MetricsRegistry()
    for value in (10, 20, 2000, 30_000):
        metrics.histogram("eventloop.queue_delay_ns.main").add(value)
    for value in (0, 370):
        metrics.histogram("eventloop.queue_delay_ns.worker-1").add(value)
    metrics.histogram("unrelated_ns").add(10**9)
    for name, value in (
        ("eventloop.tasks.timer", 5),
        ("eventloop.tasks.message", 2),
        ("kernel.api_calls.setTimeout", 3),
        ("unrelated.counter", 99),
    ):
        metrics.counter(name).inc(value)
    profile = overhead_profile(metrics)
    delay = profile["queue_delay"]
    assert delay["count"] == 6
    assert delay["mean_ns"] == 32_400 / 6  # exact: the sketch keeps integer sums
    # the samples of [0, 10, 20, 370, 2000, 30000] at rank q * (n - 1),
    # each to the sketch's 0.5% value resolution
    assert delay["p50_ns"] == pytest.approx(20, rel=0.01)
    assert delay["p95_ns"] == pytest.approx(2000, rel=0.01)
    assert delay["p99_ns"] == pytest.approx(2000, rel=0.01)
    assert set(delay) == {"count", "mean_ns", "p50_ns", "p95_ns", "p99_ns"}
    assert profile["tasks"] == 7
    assert profile["kernel_api_calls"] == 3
    assert "kernel_confirm" not in profile  # no kernel histograms present


def test_run_cube_cell_carries_verdict_and_overhead():
    cell = run_cube_cell("clock-edge", "jskernel", seed=0)
    assert cell["defended"] is True
    assert cell["overhead"]["queue_delay"]["count"] > 0
    assert cell["overhead"]["tasks"] > 0


# ----------------------------------------------------------------------
# divergence logic (synthetic)
# ----------------------------------------------------------------------
def synthetic_result() -> CubeResult:
    result = CubeResult(
        attacks=["a1", "a2", "a3"],
        defenses=["jskernel", "detbrowser"],
        seed=0,
    )
    result.verdicts = {
        "a1": {"jskernel": True, "detbrowser": False},  # verdict divergence
        "a2": {"jskernel": True, "detbrowser": True},  # overhead divergence
        "a3": {"jskernel": True, "detbrowser": True},  # agreement
    }
    delay = lambda mean: {"queue_delay": {"count": 1, "mean_ns": mean}}
    result.overhead = {
        "a1": {"jskernel": delay(100.0), "detbrowser": delay(100.0)},
        "a2": {"jskernel": delay(1000.0), "detbrowser": delay(100.0)},
        "a3": {"jskernel": delay(150.0), "detbrowser": delay(100.0)},
    }
    return result


def test_divergent_cells_orders_verdicts_before_overhead():
    divergent = synthetic_result().divergent_cells()
    assert [cell["kind"] for cell in divergent] == ["verdict", "overhead"]
    assert divergent[0] == {
        "attack": "a1",
        "kind": "verdict",
        "jskernel": True,
        "detbrowser": False,
    }
    assert divergent[1]["attack"] == "a2"
    assert divergent[1]["ratio"] == 10.0


def test_divergence_requires_both_defended_for_overhead():
    result = synthetic_result()
    result.verdicts["a2"]["detbrowser"] = False
    kinds = [(cell["attack"], cell["kind"]) for cell in result.divergent_cells()]
    assert ("a2", "overhead") not in kinds
    assert ("a2", "verdict") in kinds


def test_render_mentions_divergent_cells():
    text = synthetic_result().render()
    assert "divergent cells (jskernel vs detbrowser):" in text
    assert "VULNERABLE" in text
    assert "x10.0" in text


# ----------------------------------------------------------------------
# the real cube vs the committed fixture
# ----------------------------------------------------------------------
def test_fixture_pins_a_verdict_divergent_cell():
    fixture = load_fixture()
    assert fixture["pair"] == list(CUBE_PAIR)
    divergent = [c for c in fixture["divergent"] if c["kind"] == "verdict"]
    assert divergent, "fixture must pin at least one jskernel/detbrowser divergence"
    assert any(c["attack"] == "cve-2018-5092" for c in divergent)


def test_cube_reproduces_the_fixture_divergence():
    fixture = load_fixture()
    result = run_cube(
        attacks=fixture["attacks"],
        defenses=fixture["defenses"],
        seed=fixture["seed"],
        cache=None,
    )
    assert result.errors == []
    assert result.verdicts == fixture["verdicts"]
    assert result.details == fixture["details"]
    divergent = [c for c in result.divergent_cells() if c["kind"] == "verdict"]
    assert divergent == [c for c in fixture["divergent"] if c["kind"] == "verdict"]
    # every cell carries a queue-delay overhead profile
    for attack in fixture["attacks"]:
        for defense in fixture["defenses"]:
            delay = result.overhead[attack][defense]["queue_delay"]
            assert delay["count"] > 0, (attack, defense)
            assert delay["p50_ns"] <= delay["p95_ns"] <= delay["p99_ns"], (attack, defense)


def test_cube_reproduces_the_detbrowser_timing_column():
    """The committed DetBrowser column over the ten timing rows (the cells
    ``tests/test_noninterference.py`` certifies) is what the cube reports."""
    from repro.attacks.expected import timing_rows

    with open(DETBROWSER_TIMING, "r", encoding="utf-8") as handle:
        fixture = json.load(handle)
    defense = fixture["defense"]
    result = run_cube(
        attacks=timing_rows(), defenses=[defense], seed=fixture["seed"], cache=None
    )
    assert result.errors == []
    assert {a: row[defense] for a, row in result.verdicts.items()} == fixture["verdicts"]
    assert {a: row[defense] for a, row in result.details.items()} == fixture["details"]


def test_cube_json_round_trips():
    result = run_cube(attacks=["clock-edge"], defenses=["jskernel"], cache=None)
    payload = result.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["verdicts"] == {"clock-edge": {"jskernel": True}}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_rejects_unknown_defense():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(["cube", "--defenses", "analyze", "--no-cache"])
    assert err.value.code == 2


def test_cli_rejects_unknown_attack():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(["cube", "--attacks", "bogus-attack", "--no-cache"])
    assert err.value.code == 2


def test_cli_json_output(capsys):
    from repro.__main__ import main

    code = main(
        ["cube", "--attacks", "clock-edge", "--defenses", "legacy-chrome",
         "--json", "--no-cache"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"] == {"clock-edge": {"legacy-chrome": False}}


def test_cli_accepts_extension_attacks():
    from repro.__main__ import main

    code = main(
        ["cube", "--attacks", "sab-timer", "--defenses", "detbrowser",
         "--json", "--no-cache"]
    )
    assert code == 0

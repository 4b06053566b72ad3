"""Integration tests: timing-attack rows against the decisive defenses.

The full matrix is the Table I test in ``tests/test_harness.py``; tests
here pin the cells that define each mechanism (legacy leaks; JSKernel's
determinism wins; the distinctive cells of Fuzzyfox, DeterFox, Tor and
Chrome Zero), plus the DESIGN.md §5 ablations of the timing rows.
"""

import pytest

from repro.attacks import create, timing_rows
from repro.attacks.expected import expected_matrix

EXPECTED = expected_matrix()

FAST_ROWS = [
    "cache-attack",
    "clock-edge",
    "svg-filtering",
    "floating-point",
    "css-animation",
    "video-webvtt",
]


@pytest.mark.parametrize("attack_name", FAST_ROWS)
def test_timing_attack_works_on_legacy_chrome(attack_name):
    result = create(attack_name).run("legacy-chrome")
    assert result.success, f"{attack_name} must leak on legacy: {result.detail}"


@pytest.mark.parametrize("attack_name", FAST_ROWS)
def test_timing_attack_defeated_by_jskernel(attack_name):
    result = create(attack_name).run("jskernel")
    assert result.defended, f"JSKernel must stop {attack_name}: {result.detail}"


def test_clock_edge_cells_match_mechanisms():
    # fuzzy edges defend; exact grids (Tor) leak
    assert create("clock-edge").run("fuzzyfox").defended
    assert create("clock-edge").run("chromezero").defended
    assert create("clock-edge").run("tor").success
    assert create("clock-edge").run("deterfox").success


def test_deterfox_defends_determinism_rows_only():
    assert create("cache-attack").run("deterfox").defended
    assert create("svg-filtering").run("deterfox").defended
    assert create("css-animation").run("deterfox").success  # real clocks remain


def test_loopscan_only_jskernel_defends():
    assert create("loopscan").run("jskernel").defended
    assert create("loopscan").run("legacy-chrome").success
    assert create("loopscan").run("tor").success


def test_animation_clocks_resist_coarse_explicit_clocks():
    # Tor's 100ms clamp does not touch the compositor clock
    assert create("css-animation").run("tor").success
    assert create("video-webvtt").run("tor").success


def test_timing_rows_return_without_deterministic_policy():
    """Ablation: CVE policies alone, or with fuzzy-time scheduling,
    leave event-timing channels leaking (the kernel clock still covers
    pure clock-sampling channels)."""
    assert create("cache-attack").run("jskernel-nodet").success
    assert create("svg-filtering").run("jskernel-nodet").success
    # fuzzy-time scheduling instead: the averaging adversary still wins
    # where determinism (test_timing_attack_defeated_by_jskernel) holds
    assert create("svg-filtering").run("jskernel-fuzzy").success


def test_kernel_clock_alone_defends_clock_sampling_channels():
    assert create("css-animation").run("jskernel-nodet").defended
    assert create("clock-edge").run("jskernel-nodet").defended


def test_svg_filtering_measurements_pin_table2_values():
    attack = create("svg-filtering")
    low = attack.run_trial("jskernel", "low", 1)
    high = attack.run_trial("jskernel", "high", 2)
    assert low == 10.0 and high == 10.0  # the paper's 10ms / 10ms cell
    legacy_low = attack.run_trial("legacy-chrome", "low", 1)
    assert legacy_low == pytest.approx(16.67, abs=0.1)  # paper: 16.66ms


def test_loopscan_measurement_pins_table2_values():
    attack = create("loopscan")
    assert attack.run_trial("jskernel", "google", 1) == 1.0  # paper: 1ms
    google = attack.run_trial("legacy-chrome", "google", 1)
    youtube = attack.run_trial("legacy-chrome", "youtube", 1)
    assert 3.0 < google < 7.0  # paper: 4.5ms
    assert 7.0 < youtube < 12.0  # paper: 8.8ms


def test_attack_result_metadata():
    result = create("cache-attack").run("legacy-chrome")
    assert result.mode == "timing"
    assert result.attack == "cache-attack"
    assert 0.5 <= result.accuracy <= 1.0
    assert set(result.samples) == {"cached", "uncached"}


def test_timing_rows_registry_complete():
    assert len(timing_rows()) == 10

"""End-to-end tests for the shared-memory attack scenarios.

Pins the four new race scenarios' verdicts across the defense cube, the
race-analysis findings they produce, the counter-thread-clock bypass of
clock-interposition defenses (the paper-extending finding in
``EXPECTED_BYPASSES``), and the deadlock fuzz-oracle → ddmin → replay
chain.
"""

import pytest

from repro.analysis.races import analyze_scenario
from repro.attacks import create
from repro.attacks.expected import EXPECTED_BYPASSES
from repro.attacks.registry import EXTENSION_ATTACKS, all_attack_names, attack_names
from repro.explore.campaign import run_fuzz_cell
from repro.explore.minimize import minimize_witness, replay_witness
from repro.explore.oracles import evaluate_run
from repro.harness.cube import run_cube

SHM_SCENARIOS = [
    "shm-toctou",
    "shm-toctou-locked",
    "lock-order-deadlock",
    "gc-vs-mutator",
    "counter-thread-clock",
]

CUBE_DEFENSES = ["legacy-chrome", "fuzzyfox", "jskernel", "detbrowser"]


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
def test_scenarios_registered_as_extensions():
    names = [cls.name for cls in EXTENSION_ATTACKS]
    for scenario in SHM_SCENARIOS:
        assert scenario in names
        assert scenario in all_attack_names()
        assert scenario not in attack_names()  # not Table I rows
        assert create(scenario).name == scenario


# ----------------------------------------------------------------------
# the cube: verdicts + overhead per cell
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shm_cube():
    return run_cube(attacks=SHM_SCENARIOS, defenses=CUBE_DEFENSES)


def test_cube_verdict_matrix(shm_cube):
    expected = {
        # kernel mediation provides policy + pacing, not atomicity: the
        # unlocked TOCTOU stays exploitable under every browser defense
        "shm-toctou": {
            "legacy-chrome": False, "fuzzyfox": False,
            "jskernel": False, "detbrowser": False,
        },
        # the fix is the locking discipline, everywhere
        "shm-toctou-locked": {
            "legacy-chrome": True, "fuzzyfox": True,
            "jskernel": True, "detbrowser": True,
        },
        # only the kernel's lock-ordering policy prevents the cycle
        "lock-order-deadlock": {
            "legacy-chrome": False, "fuzzyfox": False,
            "jskernel": True, "detbrowser": False,
        },
        # only the kernel guards the GC entry point (guards_gc)
        "gc-vs-mutator": {
            "legacy-chrome": False, "fuzzyfox": False,
            "jskernel": True, "detbrowser": False,
        },
        # clock-fuzzing never sees the counter; memory mediation does
        "counter-thread-clock": {
            "legacy-chrome": False, "fuzzyfox": False,
            "jskernel": True, "detbrowser": True,
        },
    }
    assert shm_cube.verdicts == expected


def test_cube_cells_carry_overhead_profiles(shm_cube):
    for attack in SHM_SCENARIOS:
        for defense in CUBE_DEFENSES:
            profile = shm_cube.overhead[attack][defense]
            assert profile["queue_delay"]["count"] > 0, (attack, defense)
            assert profile["queue_delay"]["p99_ns"] is not None, (attack, defense)


def test_deadlock_detail_names_the_cycle(shm_cube):
    detail = shm_cube.details["lock-order-deadlock"]["legacy-chrome"]
    assert detail.startswith("deadlock:")
    assert "lock:" in detail
    blocked = shm_cube.details["lock-order-deadlock"]["jskernel"]
    assert blocked.startswith("blocked:")
    assert "lock-order policy" in blocked


# ----------------------------------------------------------------------
# the paper-extending finding: counter-thread clock bypass
# ----------------------------------------------------------------------
def test_counter_thread_clock_bypass_matrix():
    """Pinned expected-failure: clock-interposition defenses that leave
    shared-memory accesses native are measurably bypassed."""
    for defense, should_defend in EXPECTED_BYPASSES["counter-thread-clock"].items():
        result = create("counter-thread-clock").run(defense)
        assert result.defended == should_defend, (
            f"{defense}: expected defended={should_defend}, got {result.detail}"
        )


def test_counter_thread_clock_beats_legacy_at_full_accuracy():
    result = create("counter-thread-clock").run("legacy-chrome")
    assert result.success
    assert "accuracy=1.00" in result.detail


# ----------------------------------------------------------------------
# race analysis pins (the lock-set-aware detector)
# ----------------------------------------------------------------------
def test_toctou_racy_variant_is_flagged():
    report = analyze_scenario("shm-toctou", "legacy-chrome", seed=0)
    patterns = {
        race["pattern"] for run in report["runs"] for race in run["races"]
    }
    assert report["race_count"] > 0
    assert "write-write" in patterns


def test_toctou_locked_variant_has_zero_races():
    """The false-positive pin: lock release→acquire edges order the
    critical sections, so the locked scenario must be race-free."""
    report = analyze_scenario("shm-toctou-locked", "legacy-chrome", seed=0)
    assert report["race_count"] == 0
    assert report["outcome"] == "no overdraft: balance=30"


def test_gc_vs_mutator_races_classify_as_use_after_collect():
    report = analyze_scenario("gc-vs-mutator", "legacy-chrome", seed=0)
    patterns = {
        race["pattern"] for run in report["runs"] for race in run["races"]
    }
    assert patterns == {"use-after-collect"}
    assert report["outcome"].startswith("crash: use-after-collect")


# ----------------------------------------------------------------------
# fuzz oracles: deadlock and shared-leak verdicts
# ----------------------------------------------------------------------
def test_deadlock_oracle_fires_on_nominal_schedule():
    verdict = evaluate_run("lock-order-deadlock", "legacy-chrome", 0)
    assert "deadlock" in verdict["failures"]
    assert verdict["deadlocks"] == 1
    assert verdict["interesting"]


def test_deadlock_oracle_silent_under_kernel_ordering():
    verdict = evaluate_run("lock-order-deadlock", "jskernel", 0)
    assert "deadlock" not in verdict["failures"]
    assert verdict["deadlocks"] == 0


def test_deadlock_fuzz_witness_minimizes_and_replays():
    """The acceptance chain: a fixed-seed campaign shard finds a seeded
    deadlock witness, ddmin strips the irrelevant perturbations, and the
    minimized witness replays to the same signature."""
    shard = run_fuzz_cell(
        "lock-order-deadlock", "legacy-chrome", seed=0, start=0, count=2
    )
    assert shard["witnesses"], "no deadlock witness found"
    witness = shard["witnesses"][0]
    assert "deadlock" in witness["verdict"]["failures"]

    minimized = minimize_witness(witness)
    assert minimized["signature"] == witness["verdict"]["failures"]
    assert "deadlock" in minimized["verdict"]["failures"]
    assert minimized["minimized"]["atoms_after"] <= minimized["minimized"]["atoms_before"]

    replayed = replay_witness(minimized)
    assert replayed["failures"] == minimized["verdict"]["failures"]


def test_shared_leak_oracle_counts_leak_instants():
    from repro.explore.oracles import sharedmem_leaks

    events = [
        {"name": "sharedmem.leak"},
        {"name": "gc.sweep"},
        {"name": "sharedmem.leak"},
    ]
    assert sharedmem_leaks(events) == 2

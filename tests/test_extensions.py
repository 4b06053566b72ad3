"""Tests for extension features beyond Table I: the SAB timer and the CLI."""

import pytest

from repro.attacks import create
from repro.attacks.registry import EXTENSION_ATTACKS
from repro.attacks.timing.sab_timer import SabTimerAttack


def test_sab_timer_is_registered_as_extension_not_table1():
    from repro.attacks import attack_names

    assert SabTimerAttack in EXTENSION_ATTACKS
    assert "sab-timer" not in attack_names()  # not a Table I row
    assert create("sab-timer").name == "sab-timer"  # but creatable


def test_sab_timer_leaks_on_legacy_browsers():
    result = create("sab-timer").run("legacy-chrome")
    assert result.success, result.detail


def test_sab_timer_leaks_through_coarse_explicit_clocks():
    """The whole point of [12]: SAB bypasses clock clamping (Tor)."""
    result = create("sab-timer").run("tor")
    assert result.success, result.detail


def test_sab_timer_degraded_below_grid_by_jskernel():
    """Kernel slot pacing: sub-millisecond secrets are indistinguishable."""
    result = create("sab-timer").run("jskernel")
    assert result.defended, result.detail


def test_sab_timer_resolution_degrades_to_grid():
    """Coarse (multi-grid) differences survive — degradation, not magic.

    This is the honest boundary DESIGN.md §7 documents.
    """
    attack = SabTimerAttack()
    attack.secrets_coarse = True
    # measure two multi-millisecond secrets manually
    deltas = {}
    for label, duration in (("a", 4.0), ("b", 9.0)):
        from repro.attacks.timing import sab_timer

        original = dict(sab_timer.SECRETS_MS)
        sab_timer.SECRETS_MS = {"short": duration, "long": duration}
        try:
            deltas[label] = attack.run_trial("jskernel", "short", seed=1)
        finally:
            sab_timer.SECRETS_MS = original
    assert deltas["b"] > deltas["a"]  # coarse signal survives the grid


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_lists(capsys):
    from repro.__main__ import main

    assert main(["attacks"]) == 0
    out = capsys.readouterr().out
    assert "cve-2018-5092" in out and "sab-timer" in out

    assert main(["defenses"]) == 0
    out = capsys.readouterr().out
    assert "jskernel" in out and "fuzzyfox" in out


def test_cli_help_and_unknown(capsys):
    from repro.__main__ import main

    assert main(["--help"]) == 0
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize(
    "argv", [["bench", "core"], ["bench", "--quick"]], ids=["core", "unknown-flag"]
)
def test_cli_bench_rejects_leftover_arguments(argv, capsys):
    """Unknown arguments must not fall through to the multi-minute run."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "python3 perfbench/run.py" in capsys.readouterr().err


def test_cli_table2_runs(capsys):
    from repro.__main__ import main

    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "jskernel" in out and "10.00" in out

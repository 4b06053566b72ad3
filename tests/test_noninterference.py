"""Noninterference of the deterministic defenses on the paper's attacks.

Where a deterministic defense defends a timing row, the attacker's
observation must not depend on the secret at all: for any trial seed,
``run_trial(defense, secret_a, seed)`` equals
``run_trial(defense, secret_b, seed)`` exactly.  This is the property
Deterministic Browser argues for; the Table I verdict only samples it
statistically over a handful of seeds.

The certified cells are every timing row that the expected matrix marks
defended for ``jskernel`` and ``deterfox``, every timing row the
committed DetBrowser column (``golden/detbrowser_timing_expected.json``,
checked against the cube by ``tests/test_cube.py``) marks defended, and
the two shared-counter extension rows, ``sab-timer`` and
``counter-thread-clock``, under the two defenses that mediate shared
memory.  ``REPRO_BENCH_FULL=1`` runs more seeds per cell.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import create
from repro.attacks.expected import expected_matrix, timing_rows

DETBROWSER_TIMING = (
    Path(__file__).resolve().parent / "golden" / "detbrowser_timing_expected.json"
)

#: Shared-counter timers that a policy on the reading agent must hold.
SHARED_COUNTER_ROWS = ("sab-timer", "counter-thread-clock")

EXAMPLES = 100 if os.environ.get("REPRO_BENCH_FULL", "") == "1" else 6


def _certified_cells():
    matrix = expected_matrix()
    detbrowser = json.loads(DETBROWSER_TIMING.read_text(encoding="utf-8"))["verdicts"]
    cells = [
        (attack, defense)
        for attack in timing_rows()
        for defense in ("jskernel", "deterfox")
        if matrix[attack][defense]
    ]
    cells += [(attack, "detbrowser") for attack in timing_rows() if detbrowser[attack]]
    cells += [
        (attack, defense)
        for attack in SHARED_COUNTER_ROWS
        for defense in ("jskernel", "detbrowser")
    ]
    return cells


CELLS = _certified_cells()


def test_every_deterministic_defense_has_certified_cells():
    defenses = {defense for _, defense in CELLS}
    assert defenses == {"jskernel", "deterfox", "detbrowser"}
    for defense in ("jskernel", "detbrowser"):
        certified = [attack for attack, d in CELLS if d == defense]
        assert certified == timing_rows() + list(SHARED_COUNTER_ROWS), defense


@pytest.mark.parametrize("attack_name, defense", CELLS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_observation_is_independent_of_the_secret(attack_name, defense, seed):
    attack = create(attack_name)
    observed_a = attack.run_trial(defense, attack.secret_a, seed)
    observed_b = attack.run_trial(defense, attack.secret_b, seed)
    assert observed_a == observed_b

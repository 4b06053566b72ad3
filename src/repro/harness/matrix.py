"""Table I harness: run attacks × defenses and compare with the paper."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.tables import render_matrix
from ..attacks import attack_names
from ..attacks.expected import expected_matrix
from ..defenses import TABLE1_DEFENSES
from ..telemetry.spans import span
from .parallel import Cell, ExperimentEngine


class TableOneResult:
    """Outcome of a Table I run."""

    def __init__(
        self,
        matrix: Dict[str, Dict[str, bool]],
        details: Dict[str, Dict[str, str]],
        defenses: Sequence[str],
    ):
        #: attack -> defense -> defended?
        self.matrix = matrix
        #: attack -> defense -> result detail string
        self.details = details
        self.defenses = list(defenses)
        #: "attack vs defense: error" strings for cells whose run raised
        #: (the parallel engine captures per-cell failures instead of
        #: aborting the whole matrix); empty on a clean run.
        self.errors: List[str] = []
        #: Engine accounting when the run went through the parallel
        #: engine: cells computed fresh vs. served from the result cache.
        self.computed_cells: int = 0
        self.cached_cells: int = 0

    def agreement(self) -> float:
        """Fraction of cells agreeing with the reconstructed paper matrix.

        Cells outside the paper's Table I (an ablation defense, an
        extension attack) have no expected value and are skipped rather
        than crashing the comparison; only comparable cells count.
        """
        expected = expected_matrix()
        total = 0
        agree = 0
        for attack, row in self.matrix.items():
            expected_row = expected.get(attack)
            if expected_row is None:
                continue
            for defense, defended in row.items():
                if defense not in expected_row:
                    continue
                total += 1
                agree += 1 if expected_row[defense] == defended else 0
        return agree / total if total else 1.0

    def disagreements(self) -> List[str]:
        """Comparable cells differing from the expected matrix."""
        expected = expected_matrix()
        cells = []
        for attack, row in self.matrix.items():
            expected_row = expected.get(attack)
            if expected_row is None:
                continue
            for defense, defended in row.items():
                if defense in expected_row and expected_row[defense] != defended:
                    cells.append(f"{attack} vs {defense}")
        return cells

    def render(self) -> str:
        """Text rendering comparable to the paper's Table I."""
        return render_matrix(self.matrix, self.defenses, expected=expected_matrix())


def run_table1(
    attacks: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    seed: int = 0,
    parallel: Optional[int] = None,
    cache=None,
) -> TableOneResult:
    """Evaluate every (attack, defense) cell.

    The full 22×8 run takes a few seconds of wall time; tests typically
    pass a subset.  ``parallel=N`` shards the cells over N worker
    processes (every cell is a pure function of ``(attack, defense,
    seed)``, so the result is byte-identical to the serial run); ``cache``
    enables the content-addressed result cache (see
    :mod:`repro.harness.cache`) so warm reruns skip already-computed
    cells.
    """
    attacks = list(attacks or attack_names())
    defenses = list(defenses or TABLE1_DEFENSES)
    cells = [
        Cell("table1", {"attack": attack, "defense": defense, "seed": seed})
        for attack in attacks
        for defense in defenses
    ]
    engine = ExperimentEngine(workers=parallel, cache=cache)
    with span("matrix.run", cells=len(cells), seed=seed):
        results = engine.run(cells)

    matrix: Dict[str, Dict[str, bool]] = {attack: {} for attack in attacks}
    details: Dict[str, Dict[str, str]] = {attack: {} for attack in attacks}
    errors: List[str] = []
    for result in results:
        attack = result.cell.params["attack"]
        defense = result.cell.params["defense"]
        if result.ok:
            matrix[attack][defense] = result.payload["defended"]
            details[attack][defense] = result.payload["detail"]
        else:
            # a poisoned cell reports instead of killing the run; it is
            # counted as undefended so it can never mask a regression
            matrix[attack][defense] = False
            details[attack][defense] = f"error: {result.error}"
            errors.append(f"{attack} vs {defense}: {result.error}")

    outcome = TableOneResult(matrix, details, defenses)
    outcome.errors = errors
    outcome.computed_cells = engine.computed
    outcome.cached_cells = engine.cache_hits
    return outcome

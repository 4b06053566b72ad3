"""Determinism as a harness property.

The matrix harness answers "did the defense stop the attack"; this module
answers the paper's stronger claim — that JSKernel's general policy makes
the dispatch schedule a function of the program alone (§III-D2).  It runs
the determinism auditor (:mod:`repro.analysis.determinism`) over a set of
scenarios and asserts divergence 0 for the defenses that promise it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.determinism import combine_schedules
from .parallel import Cell, ExperimentEngine

#: Defenses whose scheduling policy promises a seed-independent dispatch
#: schedule (the JSKernel general policy, with or without CVE policies).
DETERMINISTIC_DEFENSES: Tuple[str, ...] = ("jskernel", "jskernel-nocve")

#: Default seed triple for audits (the acceptance bar is ≥ 3 seeds).
AUDIT_SEEDS: Tuple[int, ...] = (0, 1, 2)


def determinism_matrix(
    attacks: Sequence[str],
    defenses: Sequence[str],
    seeds: Sequence[int] = AUDIT_SEEDS,
    parallel: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[str, dict]]:
    """Audit every (attack, defense) cell; returns the audit reports.

    Every **seed** of every cell is an independent shard: the engine runs
    ``len(attacks) × len(defenses) × len(seeds)`` scenario executions
    (optionally across ``parallel`` workers, optionally cached) and the
    per-seed schedules are recombined here.  A shard that fails surfaces
    as an ``error`` report for its cell — counted as a violation for
    determinism-promising defenses — instead of aborting the audit.
    """
    if len(seeds) < 2:
        raise ValueError("determinism audit needs at least two seeds")
    seeds = [int(seed) for seed in seeds]
    pairs = [(a, d) for a in attacks for d in defenses]
    cells = [
        Cell("audit-schedule", {"attack": attack, "defense": defense, "seed": seed})
        for attack, defense in pairs
        for seed in seeds
    ]
    results = ExperimentEngine(workers=parallel, cache=cache).run(cells)

    reports: Dict[str, Dict[str, dict]] = {attack: {} for attack in attacks}
    cursor = 0
    for attack_name, defense_name in pairs:
        shards = results[cursor : cursor + len(seeds)]
        cursor += len(seeds)
        failed = [shard for shard in shards if not shard.ok]
        if failed:
            reports[attack_name][defense_name] = {
                "scenario": attack_name,
                "defense": defense_name,
                "seeds": list(seeds),
                "error": "; ".join(shard.error for shard in failed),
                # a cell we could not audit can never count as clean
                "divergence": -1,
                "deterministic": False,
                "first_divergence": None,
            }
            continue
        reports[attack_name][defense_name] = combine_schedules(
            attack_name,
            defense_name,
            seeds,
            [shard.payload["schedule"] for shard in shards],
            [shard.payload["outcome"] for shard in shards],
        )
    return reports


def determinism_violations(reports: Dict[str, Dict[str, dict]]) -> List[str]:
    """Cells where a determinism-promising defense diverged.

    Baseline defenses may diverge freely (that is the point of the
    comparison); only :data:`DETERMINISTIC_DEFENSES` are held to 0.
    """
    violations = []
    for attack_name, row in reports.items():
        for defense_name, report in row.items():
            if defense_name in DETERMINISTIC_DEFENSES and report["divergence"] != 0:
                violations.append(
                    f"{attack_name} vs {defense_name}: "
                    f"divergence {report['divergence']}"
                )
    return violations

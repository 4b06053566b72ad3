"""Web concurrency attacks: every row of the paper's Table I."""

from .base import Attack, AttackResult, CveAttack, MeasurementTimeout, TimingAttack
from .expected import cve_rows, expected_matrix, timing_rows
from .registry import TABLE1_ATTACKS, all_attack_names, attack_names, create

__all__ = [
    "Attack",
    "AttackResult",
    "CveAttack",
    "MeasurementTimeout",
    "TABLE1_ATTACKS",
    "TimingAttack",
    "all_attack_names",
    "attack_names",
    "create",
    "cve_rows",
    "expected_matrix",
    "timing_rows",
]

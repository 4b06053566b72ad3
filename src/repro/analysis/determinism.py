"""Determinism auditing: does the schedule depend on the seed?

JSKernel's general policy (paper §III-D2) predicts every event's dispatch
time on the kernel clock's grid, so the cross-thread invocation sequence
is a function of the program alone — network jitter shifts *when* the
browser confirms an event, never *in which order* the kernel dispatches
it.  Baseline browsers dispatch in arrival order, which embeds the
jitter.  The auditor measures exactly that: run one scenario under N
different simulator seeds, extract each run's dispatch schedule, and
count disagreements.

Schedule extraction
-------------------

For each run we build, per thread row, the ordered list of dispatch
records:

* **kernel mode** — when the run contains kernel dispatch legs (``e``
  legs of ``kernel-event`` spans carrying ``predicted_ns``), the schedule
  is ``(event name, predicted_ns)`` per kernel row.  Predicted times come
  from the kernel clock only, so two seeds must produce identical lists.
* **task mode** — otherwise (baseline browsers) the schedule is
  ``(task label, start ts)`` per thread from the ``X`` task spans.  Real
  timestamps embed network jitter, so differing seeds diverge.

The divergence score between two runs is the number of positions at
which their per-row schedules disagree (missing rows count their full
length); the report also pinpoints the first divergent position.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .hbgraph import run_pids
from .scenario import run_traced_scenario

Schedule = Dict[str, List[Tuple[str, int]]]

#: Defenses whose scheduling policy promises a seed-independent dispatch
#: schedule (the JSKernel general policy, with or without CVE policies);
#: the fuzz replay oracle is on by default for these.
DETERMINISTIC_DEFENSES: Tuple[str, ...] = ("jskernel", "jskernel-nocve")


def extract_schedule(events: List[dict], pid: int) -> Schedule:
    """The dispatch schedule of one run, keyed by thread row."""
    kernel: Schedule = {}
    tasks: Schedule = {}
    for raw in events:
        if raw.get("pid") != pid:
            continue
        ph = raw.get("ph")
        if (
            ph == "e"
            and raw.get("cat") == "kernel-event"
            and "predicted_ns" in raw.get("args", {})
        ):
            kernel.setdefault(raw["thread"], []).append(
                (raw["name"], raw["args"]["predicted_ns"])
            )
        elif ph == "X":
            tasks.setdefault(raw["thread"], []).append((raw["name"], raw["ts"]))
    # a kernelised run is judged by its kernel schedule alone: task spans
    # still carry real (jitter-shifted) times even when dispatch order is
    # deterministic, which is precisely what the kernel abstracts away
    return kernel if kernel else tasks


def schedule_divergence(a: Schedule, b: Schedule) -> Tuple[int, Optional[dict]]:
    """(score, first divergence point) between two schedules."""
    score = 0
    first: Optional[dict] = None

    def note(row: str, position: int, got, expected) -> None:
        nonlocal first
        if first is None:
            first = {"row": row, "position": position, "a": got, "b": expected}

    for row in sorted(set(a) | set(b)):
        seq_a = a.get(row, [])
        seq_b = b.get(row, [])
        for i in range(max(len(seq_a), len(seq_b))):
            entry_a = seq_a[i] if i < len(seq_a) else None
            entry_b = seq_b[i] if i < len(seq_b) else None
            if entry_a != entry_b:
                score += 1
                note(row, i, entry_a, entry_b)
    return score, first


def capture_schedule(events: List[dict]) -> Dict[str, List[list]]:
    """Every run's dispatch schedule in one capture, folded by thread row.

    Attacks build one browser per run, so rows are unique per pid; the
    pid stays out of the key so two captures' runs align.  Entries are in
    **list form** (``[name, value]``), the form reports print and JSON
    carries.
    """
    merged: Dict[str, List[list]] = {}
    for pid in run_pids(events):
        for row, seq in extract_schedule(events, pid).items():
            merged.setdefault(row, []).extend(list(entry) for entry in seq)
    return merged


def schedule_for_seed(
    attack_name: str, defense_name: str, seed: int
) -> Tuple[Dict[str, List[list]], str]:
    """Run a scenario under ``seed``; return ``(schedule, outcome)``."""
    tracer, outcome = run_traced_scenario(attack_name, defense_name, seed=seed)
    return capture_schedule(tracer.events), outcome


def audit_scenario(
    attack_name: str,
    defense_name: str,
    seeds: Tuple[int, ...] = (0, 1, 2),
) -> dict:
    """Run a scenario once per seed and compare dispatch schedules.

    The first seed's schedule is the reference; every other seed is
    scored against it.  ``divergence`` is the total across seeds — 0
    means the invocation sequence is seed-independent.
    """
    if len(seeds) < 2:
        raise ValueError("determinism audit needs at least two seeds")
    schedules, outcomes = zip(
        *(schedule_for_seed(attack_name, defense_name, seed) for seed in seeds)
    )
    reference = schedules[0]
    per_seed = []
    total = 0
    first_divergence: Optional[dict] = None
    for seed, schedule in zip(seeds[1:], schedules[1:]):
        score, first = schedule_divergence(reference, schedule)
        total += score
        if first is not None and first_divergence is None:
            first_divergence = dict(first, seed=seed)
        per_seed.append({"seed": seed, "divergence": score})

    return {
        "scenario": attack_name,
        "defense": defense_name,
        "seeds": list(seeds),
        "reference_seed": seeds[0],
        "schedule_rows": len(reference),
        "schedule_length": sum(len(seq) for seq in reference.values()),
        "outcomes": list(outcomes),
        "per_seed": per_seed,
        "divergence": total,
        "deterministic": total == 0,
        "first_divergence": first_divergence,
    }


def format_audit(report: dict) -> str:
    """Human-readable rendering of an :func:`audit_scenario` report."""
    lines = [
        f"scenario:   {report['scenario']} vs {report['defense']}",
        f"seeds:      {report['seeds']} (reference {report['reference_seed']})",
        f"schedule:   {report['schedule_length']} dispatches over "
        f"{report['schedule_rows']} rows",
        f"divergence: {report['divergence']} "
        f"({'deterministic' if report['deterministic'] else 'seed-dependent'})",
    ]
    for entry in report["per_seed"]:
        lines.append(f"  seed {entry['seed']}: divergence {entry['divergence']}")
    first = report["first_divergence"]
    if first is not None:
        lines.append(
            f"  first divergence: seed {first['seed']}, row {first['row']!r} "
            f"position {first['position']}: {first['a']} != {first['b']}"
        )
    return "\n".join(lines)

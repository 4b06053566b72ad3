"""Per-run fuzz oracles: what counts as a finding.

One fuzz trial = one scenario run under a (perturbation spec, fault
plan).  :func:`evaluate_run` executes the trial traced and derives a
JSON verdict from four oracle batteries:

* **races** — :func:`repro.analysis.races.analyze_races` over every run
  in the capture; any unordered conflicting access pair is a finding,
  with ``use-after-free`` pairs (the CVE-2018-5092 shape) called out;
* **outcome** — the scenario's own summary: ``crash: ...`` /
  escaped-error outcomes tag ``crash``, ``leak obtained`` tags ``leak``;
* **kernel invariant** — under an order-enforcing policy the dispatcher
  must dispatch events in monotone predicted-time order; the dispatcher
  emits a ``kernel.order-violation`` trace instant whenever that fails
  (see :mod:`repro.kernel.dispatcher`), and any such instant is a kernel
  bug by definition;
* **shared memory** — the shared heap emits a ``sharedmem.deadlock``
  instant when its wait-for graph closes a cycle and a
  ``sharedmem.leak`` instant when a cycle-blind collector strands
  unreachable cells (see :mod:`repro.runtime.sharedmem.heap`); these
  become ``deadlock`` / ``shared-leak`` failures.  Both are *liveness*
  findings about the program, not defense escapes, so
  :func:`security_failures` excludes them from differential comparison;
* **determinism** — the trial is run a *second* time with byte-identical
  inputs; any schedule or outcome divergence means the implementation
  leaked nondeterminism (global RNG state, iteration-order dependence) —
  the property every replayable witness rests on.  Enabled by default
  for the defenses that promise deterministic schedules
  (:data:`~repro.analysis.determinism.DETERMINISTIC_DEFENSES`).

Deliberately **not** findings: ``DeadlockError``/``SimulationError``
outcomes.  A plan that blackholes the response a scenario awaits hangs
it by construction — recording the hang is useful, alarming on it is
noise.

The verdict is a pure function of ``(attack, defense, seed,
perturb_spec, fault_spec)`` — the contract witness replay depends on.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List, Optional

from ..analysis.determinism import (
    DETERMINISTIC_DEFENSES,
    capture_schedule,
    schedule_divergence,
)
from ..analysis.hbgraph import run_pids
from ..analysis.races import analyze_races
from ..analysis.scenario import run_traced_scenario
from ..runtime.simulator import perturbation
from ..trace import current_tracer
from .faults import FaultPlan
from .perturb import make_perturber

#: Escaped-error outcome prefixes that count as crashes.
CRASH_MARKERS = (
    "crash:",
    "UseAfterFreeError:",
    "DoubleFreeError:",
    "NullDerefError:",
    "BrowserCrash:",
)


def traced_run(
    attack: str,
    defense: str,
    seed: int,
    perturb_spec: Optional[dict] = None,
    fault_spec: Optional[dict] = None,
):
    """One scenario run under perturbation + faults, traced.

    Returns ``(tracer, outcome)`` exactly like
    :func:`~repro.analysis.scenario.run_traced_scenario`.

    When an enabled tracer capture is ambient (an engine ``--metrics``
    or telemetry run), the trial's private metrics snapshot is folded
    back into it, so fuzz campaigns contribute their event-loop and
    kernel metrics to the merged run telemetry.  The fold happens here,
    on every trial, rather than inside :func:`run_traced_scenario`:
    ``interesting_labels`` memoises that function's results, and a fold
    behind an ``lru_cache`` would fire on misses only, breaking
    serial-vs-parallel metric determinism.
    """
    perturber = make_perturber(perturb_spec)
    plan = FaultPlan.from_dict(fault_spec)
    with ExitStack() as stack:
        stack.enter_context(plan.apply())
        if perturber is not None:
            stack.enter_context(perturbation(perturber))
        tracer, outcome = run_traced_scenario(attack, defense, seed=seed)
    ambient = current_tracer()
    if ambient.enabled:
        ambient.metrics.merge_snapshot(tracer.metrics.snapshot())
    return tracer, outcome


def kernel_order_violations(events: List[dict]) -> int:
    """How many dispatches broke the predicted-time order invariant."""
    return sum(1 for event in events if event.get("name") == "kernel.order-violation")


def sharedmem_deadlocks(events: List[dict]) -> int:
    """How many wait-for cycles the shared heap detected."""
    return sum(1 for event in events if event.get("name") == "sharedmem.deadlock")


def sharedmem_leaks(events: List[dict]) -> int:
    """How many GC runs stranded unreachable-but-referenced cells."""
    return sum(1 for event in events if event.get("name") == "sharedmem.leak")


def evaluate_run(
    attack: str,
    defense: str,
    seed: int,
    perturb_spec: Optional[dict] = None,
    fault_spec: Optional[dict] = None,
    check_determinism: Optional[bool] = None,
) -> dict:
    """Run one fuzz trial and return its oracle verdict (JSON-shaped).

    ``check_determinism=None`` auto-enables the replay-divergence oracle
    for determinism-promising defenses.
    """
    if check_determinism is None:
        check_determinism = defense in DETERMINISTIC_DEFENSES

    tracer, outcome = traced_run(attack, defense, seed, perturb_spec, fault_spec)

    races = 0
    uaf_races = 0
    patterns = set()
    for pid in run_pids(tracer.events):
        report = analyze_races(tracer.events, pid=pid)
        races += report["race_count"]
        for race in report["races"]:
            patterns.add(race["pattern"])
            if race["pattern"] == "use-after-free":
                uaf_races += 1

    violations = kernel_order_violations(tracer.events)
    deadlocks = sharedmem_deadlocks(tracer.events)
    shared_leaks = sharedmem_leaks(tracer.events)

    failures = [f"race:{pattern}" for pattern in patterns]
    if outcome.startswith(CRASH_MARKERS):
        failures.append("crash")
    if "leak obtained" in outcome:
        failures.append("leak")
    if violations:
        failures.append("kernel:order-violation")
    if deadlocks:
        failures.append("deadlock")
    if shared_leaks:
        failures.append("shared-leak")

    divergence = None
    if check_determinism:
        tracer2, outcome2 = traced_run(attack, defense, seed, perturb_spec, fault_spec)
        divergence, _first = schedule_divergence(
            capture_schedule(tracer.events), capture_schedule(tracer2.events)
        )
        if divergence or outcome2 != outcome:
            failures.append("nondeterminism")

    failures = sorted(set(failures))
    return {
        "attack": attack,
        "defense": defense,
        "seed": seed,
        "outcome": outcome,
        "races": races,
        "uaf_races": uaf_races,
        "race_patterns": sorted(patterns),
        "order_violations": violations,
        "deadlocks": deadlocks,
        "shared_leaks": shared_leaks,
        "divergence": divergence,
        "failures": failures,
        "interesting": bool(failures),
    }


def signature(verdict: dict) -> List[str]:
    """The failure signature minimization must preserve."""
    return list(verdict["failures"])


def security_failures(verdict: dict) -> List[str]:
    """The defense-outcome part of a verdict's failure signature.

    Crash, leak and race findings say whether the *attack* got through;
    kernel-invariant and nondeterminism findings say whether the
    *implementation* misbehaved.  Differential fuzzing compares only the
    former — a kernel-only invariant can never "diverge" on a defense
    that has no kernel.
    """
    return sorted(
        failure
        for failure in verdict["failures"]
        if failure in ("crash", "leak") or failure.startswith("race:")
    )


def evaluate_divergence(
    attack: str,
    defense_a: str,
    defense_b: str,
    seed: int,
    perturb_spec: Optional[dict] = None,
    fault_spec: Optional[dict] = None,
) -> dict:
    """Run one identical trial under two defenses and compare what escaped.

    The divergence-hunting oracle: same attack, same seed, same
    perturbation spec, same fault plan — the only variable is the
    defense, so a differing :func:`security_failures` signature means one
    defense held a schedule the other leaked on.  Pure function of its
    arguments, like :func:`evaluate_run`.
    """
    verdict_a = evaluate_run(
        attack, defense_a, seed, perturb_spec, fault_spec, check_determinism=False
    )
    verdict_b = evaluate_run(
        attack, defense_b, seed, perturb_spec, fault_spec, check_determinism=False
    )
    escaped_a = security_failures(verdict_a)
    escaped_b = security_failures(verdict_b)
    return {
        "attack": attack,
        "seed": seed,
        "a": {
            "defense": defense_a,
            "failures": escaped_a,
            "outcome": verdict_a["outcome"],
        },
        "b": {
            "defense": defense_b,
            "failures": escaped_b,
            "outcome": verdict_b["outcome"],
        },
        "divergent": escaped_a != escaped_b,
    }


__all__ = [
    "CRASH_MARKERS",
    "evaluate_divergence",
    "evaluate_run",
    "kernel_order_violations",
    "security_failures",
    "sharedmem_deadlocks",
    "sharedmem_leaks",
    "signature",
    "traced_run",
]

"""Seeded schedule perturbation strategies.

A perturber is installed ambiently (``with perturbation(p): ...`` from
:mod:`repro.runtime.simulator`) and sees every scheduled callback and
every posted event-loop task.  It may only *delay* events — moving one
earlier could deliver a message before it was sent, exploring schedules
the real platform can never produce.

Determinism contract
--------------------

A perturber's decisions are a pure function of ``(spec, label, n)``
where ``n`` counts prior perturbations of that label (or label class) —
a *per-label stream*, the same construction as
:class:`~repro.runtime.rng.RngService`'s named streams.  A global draw
sequence would entangle unrelated subsystems: one extra network task
would shift every later decision, and the determinism oracle (which
replays a run twice) would see phantom divergence.  Per-label streams
make replays bit-for-bit stable and keep paired runs paired.

Two label families are exempt from perturbation:

* ``*:wake`` — event-loop wakeups are plumbing, not events; the loop's
  tasks are perturbed individually at post time instead (double-jitter
  would skew queue-delay accounting);
* ``fault:*`` — fault-plan trigger points must fire at exactly their
  declared virtual times or witnesses would not replay.

Strategies
----------

* ``jitter`` — with probability ``rate``, delay an event by a uniform
  amount in ``[0, magnitude_ns]``;
* ``priority`` — PCT-style priority schedules, approximated: each label
  *class* (label with digits stripped) is assigned a priority level per
  phase, and lower-priority classes are uniformly held back by
  ``level * step_ns``; priorities reshuffle every ``change_every``
  perturbations of the class (the PCT change points);
* ``targeted`` — explicit reordering rules ``{"match", "delay_ns"}``
  applied to labels containing ``match`` — the campaign derives rule
  candidates from postMessage/timer/worker-lifecycle/network edges of a
  baseline trace (see :func:`repro.explore.campaign.interesting_labels`).

Specs are plain JSON dicts (``{"strategy": ..., ...}``) so they ride in
witness files and cache keys; :func:`make_perturber` rebuilds the
strategy from its spec.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ReproError
from ..runtime.rng import hash_seed
from ..runtime.simtime import ms, us

#: Event-loop wakeup labels (exempt — plumbing, not events).
WAKE_SUFFIX = ":wake"

#: Fault-plan trigger labels (exempt — injection times must stay exact).
FAULT_PREFIX = "fault:"


def exempt_label(label: str) -> bool:
    """Labels the perturbation layer must leave untouched."""
    return not label or label.endswith(WAKE_SUFFIX) or label.startswith(FAULT_PREFIX)


def label_class(label: str) -> str:
    """The label with digits stripped: ``worker-3:boot`` → ``worker-:boot``.

    Collapses per-instance names so a priority schedule treats every
    worker's boot task as one class, as PCT treats threads.
    """
    return "".join(ch for ch in label if not ch.isdigit())


class Perturber:
    """Base strategy: each subclass's ``delay_for(label)`` returns the
    extra delay (ns) for the next occurrence of ``label``."""

    def perturb(self, sim, at: int, label: str) -> int:
        """The perturbed schedule time for an event nominally at ``at``
        (the hook :class:`~repro.runtime.simulator.Simulator` and
        :class:`~repro.runtime.eventloop.EventLoop` call)."""
        if exempt_label(label):
            return at
        return at + self.delay_for(label)


class JitterPerturber(Perturber):
    """Random per-event dispatch-delay jitter."""

    def __init__(self, seed: int = 0, rate: float = 0.3, magnitude_ns: int = ms(1)):
        self.seed = int(seed)
        self.rate = float(rate)
        self.magnitude_ns = int(magnitude_ns)
        self._counts: Dict[str, int] = {}

    def delay_for(self, label: str) -> int:
        n = self._counts.get(label, 0)
        self._counts[label] = n + 1
        h = hash_seed(self.seed, f"{label}#{n}")
        if (h % 10_000) / 10_000.0 >= self.rate:
            return 0
        return (h // 10_000) % (self.magnitude_ns + 1)


class PriorityPerturber(Perturber):
    """PCT-style priority schedules over label classes."""

    def __init__(
        self,
        seed: int = 0,
        levels: int = 3,
        step_ns: int = ms(1),
        change_every: int = 16,
    ):
        self.seed = int(seed)
        self.levels = max(int(levels), 1)
        self.step_ns = int(step_ns)
        self.change_every = max(int(change_every), 1)
        self._counts: Dict[str, int] = {}

    def delay_for(self, label: str) -> int:
        cls = label_class(label)
        n = self._counts.get(cls, 0)
        self._counts[cls] = n + 1
        phase = n // self.change_every
        level = hash_seed(self.seed, f"prio:{phase}:{cls}") % self.levels
        return level * self.step_ns


class TargetedPerturber(Perturber):
    """Explicit reordering rules around chosen schedule edges.

    Each rule is ``{"match": substring, "delay_ns": int}`` and delays
    every event whose label contains ``match``.  Rules are the atoms the
    witness minimizer removes one by one.
    """

    def __init__(self, rules: Optional[List[dict]] = None):
        self.rules = [
            {"match": str(rule["match"]), "delay_ns": int(rule["delay_ns"])}
            for rule in (rules or [])
        ]

    def delay_for(self, label: str) -> int:
        delay = 0
        for rule in self.rules:
            if rule["match"] in label:
                delay += rule["delay_ns"]
        return delay


#: Spec-strategy → constructor-from-spec.
_STRATEGIES = {
    "jitter": lambda spec: JitterPerturber(
        seed=spec.get("seed", 0),
        rate=spec.get("rate", 0.3),
        magnitude_ns=spec.get("magnitude_ns", ms(1)),
    ),
    "priority": lambda spec: PriorityPerturber(
        seed=spec.get("seed", 0),
        levels=spec.get("levels", 3),
        step_ns=spec.get("step_ns", ms(1)),
        change_every=spec.get("change_every", 16),
    ),
    "targeted": lambda spec: TargetedPerturber(rules=spec.get("rules", [])),
}

#: Delay magnitudes trials draw from (spread over the scales that matter:
#: sub-grid, one kernel grid step, a network RTT, a human-visible stall).
DELAY_CHOICES_NS = (us(50), us(500), ms(1), ms(5), ms(20))


def make_perturber(spec: Optional[dict]) -> Optional[Perturber]:
    """Build a strategy from its JSON spec; ``None``/``"none"`` → no-op."""
    if not spec:
        return None
    strategy = spec.get("strategy", "none")
    if strategy == "none":
        return None
    builder = _STRATEGIES.get(strategy)
    if builder is None:
        raise ReproError(
            f"unknown perturbation strategy {strategy!r}; "
            f"expected one of {sorted(_STRATEGIES)} or 'none'"
        )
    return builder(spec)


__all__ = [
    "DELAY_CHOICES_NS",
    "JitterPerturber",
    "Perturber",
    "PriorityPerturber",
    "TargetedPerturber",
    "exempt_label",
    "label_class",
    "make_perturber",
]

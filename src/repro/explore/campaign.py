"""Budgeted fuzz campaigns over the parallel experiment engine.

A campaign is ``budget`` independent trials of one ``(attack, defense,
seed)`` scenario.  Trial ``i`` derives its own seed with
:func:`~repro.runtime.rng.hash_seed` and generates a (perturbation spec,
fault plan) pair from it, so the whole campaign is a pure function of
its parameters: shards are ordinary
:class:`~repro.harness.parallel.ExperimentEngine` cells (kind
``"fuzz"``), fan out across worker processes, and land in the
content-addressed result cache like any Table I cell — a warm rerun of
a campaign recomputes nothing.

The *event* budget rides separately: fuzz runs lower the simulator's
``max_events`` backstop through ``$REPRO_MAX_EVENTS`` (inherited by pool
workers), so a perturbed schedule that loops where the nominal one
terminates fails fast with its recent dispatch labels instead of
spinning for fifty million events.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..analysis.scenario import run_traced_scenario
from ..harness.parallel import Cell, ExperimentEngine
from ..runtime.rng import hash_seed
from ..runtime.simtime import ms
from ..telemetry.spans import span
from .oracles import evaluate_divergence, evaluate_run
from .perturb import DELAY_CHOICES_NS, exempt_label

#: Default fuzz scenario: the schedule-sensitive UAF the paper opens with.
DEFAULT_ATTACK = "cve-2018-5092"
DEFAULT_DEFENSE = "legacy-chrome"

#: Strategy names ``--strategy`` accepts ("mixed" cycles through these).
STRATEGIES = ("jitter", "priority", "targeted")

#: Trials per engine cell (shard): big enough to amortise process
#: dispatch, small enough that a campaign still shards across workers.
DEFAULT_SHARD = 10

#: Horizon (ns) fault times are drawn from — covers the active window of
#: every Table I scenario.
FAULT_HORIZON_NS = ms(500)

#: Task sources whose labels make interesting reordering targets.
TARGET_SOURCES = ("message", "timer", "worker", "network")


@lru_cache(maxsize=32)
def interesting_labels(attack: str, defense: str, seed: int) -> Tuple[str, ...]:
    """Reordering targets from a baseline (unperturbed) traced run.

    Collects the task labels of postMessage/timer/worker-lifecycle/
    network dispatches — the happens-before edge kinds the targeted
    strategy reorders around.  Memoised per process: every trial of a
    shard shares one baseline run.
    """
    tracer, _outcome = run_traced_scenario(attack, defense, seed=seed)
    labels = set()
    for event in tracer.events:
        if event.get("ph") != "X":
            continue
        source = event.get("args", {}).get("source")
        label = event.get("name", "")
        if source in TARGET_SOURCES and not exempt_label(label):
            labels.add(label)
    return tuple(sorted(labels))


def generate_trial(
    attack: str,
    defense: str,
    seed: int,
    index: int,
    strategy: str,
    labels: Tuple[str, ...],
) -> Tuple[dict, dict]:
    """The (perturbation spec, fault spec) pair for trial ``index``.

    Pure function of its arguments: the trial RNG is a private
    ``random.Random`` seeded from the campaign seed and trial index
    (never the global ``random`` state), so a shard recomputes to the
    same specs on every machine.
    """
    trial_seed = hash_seed(seed, f"fuzz:{attack}:{defense}:{index}")
    rng = random.Random(trial_seed)

    chosen = strategy
    if strategy == "mixed":
        chosen = STRATEGIES[index % len(STRATEGIES)]

    if chosen == "jitter":
        perturb_spec = {
            "strategy": "jitter",
            "seed": trial_seed,
            "rate": round(0.15 + rng.random() * 0.5, 3),
            "magnitude_ns": rng.choice(DELAY_CHOICES_NS),
        }
    elif chosen == "priority":
        perturb_spec = {
            "strategy": "priority",
            "seed": trial_seed,
            "levels": rng.choice((2, 3, 4)),
            "step_ns": rng.choice(DELAY_CHOICES_NS),
            "change_every": rng.choice((4, 16, 64)),
        }
    elif chosen == "targeted":
        pool = list(labels)
        rules = []
        if pool:
            for target in rng.sample(pool, k=min(len(pool), rng.randint(1, 4))):
                rules.append(
                    {"match": target, "delay_ns": rng.choice(DELAY_CHOICES_NS)}
                )
        perturb_spec = {"strategy": "targeted", "rules": rules}
    else:
        raise ValueError(
            f"unknown strategy {chosen!r}; expected 'mixed' or one of {STRATEGIES}"
        )

    fault_spec: dict = {"network": [], "aborts": [], "crashes": []}
    if rng.random() < 0.5:  # half the trials also shake the environment
        kind = rng.choice(("latency", "drop", "abort", "crash"))
        at = rng.randrange(FAULT_HORIZON_NS)
        if kind in ("latency", "drop"):
            fault_spec["network"].append(
                {
                    "kind": kind,
                    "from_ns": at,
                    "until_ns": at + rng.choice((ms(5), ms(50), ms(200))),
                    "extra_ns": rng.choice(DELAY_CHOICES_NS) if kind == "latency" else 0,
                    "path_contains": "",
                }
            )
        elif kind == "abort":
            fault_spec["aborts"].append({"at_ns": at, "path_contains": ""})
        else:
            fault_spec["crashes"].append(
                {"at_ns": at, "worker": rng.randrange(4), "detail": "injected worker crash"}
            )
    return perturb_spec, fault_spec


def run_fuzz_cell(
    attack: str,
    defense: str,
    seed: int,
    start: int,
    count: int,
    strategy: str = "mixed",
    check_determinism: Optional[bool] = None,
) -> dict:
    """One campaign shard: trials ``start .. start+count-1`` (JSON-pure)."""
    labels = interesting_labels(attack, defense, seed)
    witnesses: List[dict] = []
    outcomes: Dict[str, int] = {}
    signatures: Dict[str, int] = {}
    order_violations = 0
    for index in range(start, start + count):
        perturb_spec, fault_spec = generate_trial(
            attack, defense, seed, index, strategy, labels
        )
        with span("fuzz.trial", attack=attack, defense=defense, trial=index):
            verdict = evaluate_run(
                attack,
                defense,
                seed,
                perturb_spec=perturb_spec,
                fault_spec=fault_spec,
                check_determinism=check_determinism,
            )
        outcomes[verdict["outcome"]] = outcomes.get(verdict["outcome"], 0) + 1
        order_violations += verdict["order_violations"]
        if verdict["interesting"]:
            sig = "+".join(verdict["failures"])
            signatures[sig] = signatures.get(sig, 0) + 1
            witnesses.append(
                {
                    "attack": attack,
                    "defense": defense,
                    "seed": seed,
                    "trial": index,
                    "strategy": strategy,
                    "perturb": perturb_spec,
                    "faults": fault_spec,
                    "check_determinism": check_determinism,
                    "verdict": verdict,
                }
            )
    return {
        "trials": count,
        "witnesses": witnesses,
        "outcomes": outcomes,
        "signatures": signatures,
        "order_violations": order_violations,
    }


def run_diff_cell(
    attack: str,
    defense: str,
    vs: str,
    seed: int,
    start: int,
    count: int,
    strategy: str = "mixed",
) -> dict:
    """One differential shard: identical trials under two defenses.

    Trial specs are derived from a *combined* defense key so both
    defenses see byte-identical perturbations and fault plans; the
    reordering-target label pool is the union of both baselines so the
    targeted strategy can bite under either.
    """
    pair_key = f"{defense}~vs~{vs}"
    labels = tuple(
        sorted(
            set(interesting_labels(attack, defense, seed))
            | set(interesting_labels(attack, vs, seed))
        )
    )
    witnesses: List[dict] = []
    signatures: Dict[str, int] = {}
    divergent = 0
    for index in range(start, start + count):
        perturb_spec, fault_spec = generate_trial(
            attack, pair_key, seed, index, strategy, labels
        )
        with span("fuzz.diff_trial", attack=attack, defense=defense, vs=vs, trial=index):
            report = evaluate_divergence(
                attack, defense, vs, seed, perturb_spec=perturb_spec, fault_spec=fault_spec
            )
        if report["divergent"]:
            divergent += 1
            sig = (
                "+".join(report["a"]["failures"]) or "held"
            ) + " / " + ("+".join(report["b"]["failures"]) or "held")
            signatures[sig] = signatures.get(sig, 0) + 1
            witnesses.append(
                {
                    "attack": attack,
                    "defense": defense,
                    "vs": vs,
                    "seed": seed,
                    "trial": index,
                    "strategy": strategy,
                    "perturb": perturb_spec,
                    "faults": fault_spec,
                    "report": report,
                }
            )
    return {
        "trials": count,
        "divergent": divergent,
        "witnesses": witnesses,
        "signatures": signatures,
    }


class CampaignAggregate:
    """Bounded-memory campaign accounting shared by both campaign kinds.

    Folds shard payloads as they stream out of the engine.  ``trials``
    counts trials whose shard *succeeded* (the numbers the signature and
    outcome tallies describe); ``attempted_trials`` counts every trial
    the campaign dispatched, failed shards included — the denominator
    progress/ETA must use, and the discrepancy the report surfaces via
    ``failed_shards``.  The witness list is capped at ``max_witnesses``
    (``None`` = unlimited) with an explicit ``witness_overflow`` counter
    so a pathological campaign cannot grow the report without bound.
    """

    def __init__(self, max_witnesses: Optional[int] = None):
        self.max_witnesses = max_witnesses
        self.trials = 0
        self.attempted_trials = 0
        self.failed_shards = 0
        self.witnesses: List[dict] = []
        self.witness_overflow = 0
        self.signatures: Dict[str, int] = {}
        self.errors: List[str] = []

    def admit(self, result) -> Optional[dict]:
        """Fold one shard result; returns the payload when the shard ran."""
        count = int(result.cell.params.get("count", 0))
        self.attempted_trials += count
        if not result.ok:
            self.failed_shards += 1
            self.errors.append(f"{result.cell.label()}: {result.error}")
            return None
        payload = result.payload
        self.trials += payload["trials"]
        for witness in payload["witnesses"]:
            if self.max_witnesses is not None and len(self.witnesses) >= self.max_witnesses:
                self.witness_overflow += 1
            else:
                self.witnesses.append(witness)
        for sig, n in payload["signatures"].items():
            self.signatures[sig] = self.signatures.get(sig, 0) + n
        return payload

    def report(self) -> dict:
        return {
            "trials": self.trials,
            "attempted_trials": self.attempted_trials,
            "failed_shards": self.failed_shards,
            "witnesses": self.witnesses,
            "witness_overflow": self.witness_overflow,
            "signatures": self.signatures,
            "errors": self.errors,
        }


def _shard_cells(kind: str, budget: int, shard_size: int, params: dict) -> List[Cell]:
    """The shard cells of one campaign (``count`` carries the trial count)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    shard_size = max(int(shard_size), 1)
    return [
        Cell(kind, dict(params, start=start, count=min(shard_size, budget - start)))
        for start in range(0, budget, shard_size)
    ]


def run_diff_campaign(
    attack: str = DEFAULT_ATTACK,
    defense: str = "jskernel",
    vs: str = "detbrowser",
    seed: int = 0,
    budget: int = 100,
    strategy: str = "mixed",
    parallel: Optional[int] = None,
    cache=None,
    shard_size: int = DEFAULT_SHARD,
    max_witnesses: Optional[int] = None,
) -> dict:
    """Hunt schedules where one defense holds and the other leaks.

    The differential campaign points the fuzzer at a defense *pair*
    (JSKernel vs the DetBrowser backend by default): every trial runs
    twice, once per defense, under identical perturbation + fault specs,
    and trials whose security-failure signatures differ become
    divergence witnesses.  Shards are engine cells (kind ``"fuzz-diff"``)
    streamed through :meth:`~repro.harness.parallel.ExperimentEngine.
    stream`, so ``parallel``/``cache`` behave like every other campaign
    and the resident state is one shard's payload plus the aggregate.
    """
    cells = _shard_cells(
        "fuzz-diff",
        budget,
        shard_size,
        {"attack": attack, "defense": defense, "vs": vs, "seed": seed,
         "strategy": strategy},
    )
    engine = ExperimentEngine(workers=parallel, cache=cache)
    aggregate = CampaignAggregate(max_witnesses)
    divergent = 0
    for result in engine.stream(cells):
        payload = aggregate.admit(result)
        if payload is not None:
            divergent += payload["divergent"]

    report = aggregate.report()
    report.update(
        {
            "attack": attack,
            "defense": defense,
            "vs": vs,
            "seed": seed,
            "budget": budget,
            "strategy": strategy,
            "divergent": divergent,
            "computed_shards": engine.computed,
            "cached_shards": engine.cache_hits,
        }
    )
    return report


def run_campaign(
    attack: str = DEFAULT_ATTACK,
    defense: str = DEFAULT_DEFENSE,
    seed: int = 0,
    budget: int = 200,
    strategy: str = "mixed",
    parallel: Optional[int] = None,
    cache=None,
    shard_size: int = DEFAULT_SHARD,
    check_determinism: Optional[bool] = None,
    max_witnesses: Optional[int] = None,
) -> dict:
    """Run a full campaign, sharded and streamed over the engine.

    ``budget`` is the trial count.  Returns an aggregate report with
    the witnesses found (un-minimized — see
    :func:`repro.explore.minimize.minimize_witness`), capped at
    ``max_witnesses`` when given.  ``trials`` counts trials of
    successful shards only; ``attempted_trials`` / ``failed_shards``
    surface the difference so progress reporting cannot overstate a
    campaign with poisoned shards.
    """
    cells = _shard_cells(
        "fuzz",
        budget,
        shard_size,
        {"attack": attack, "defense": defense, "seed": seed,
         "strategy": strategy, "check_determinism": check_determinism},
    )
    engine = ExperimentEngine(workers=parallel, cache=cache)
    aggregate = CampaignAggregate(max_witnesses)
    outcomes: Dict[str, int] = {}
    order_violations = 0
    for result in engine.stream(cells):
        payload = aggregate.admit(result)
        if payload is not None:
            order_violations += payload["order_violations"]
            for outcome, n in payload["outcomes"].items():
                outcomes[outcome] = outcomes.get(outcome, 0) + n

    report = aggregate.report()
    report.update(
        {
            "attack": attack,
            "defense": defense,
            "seed": seed,
            "budget": budget,
            "strategy": strategy,
            "outcomes": outcomes,
            "order_violations": order_violations,
            "computed_shards": engine.computed,
            "cached_shards": engine.cache_hits,
        }
    )
    return report


__all__ = [
    "CampaignAggregate",
    "DEFAULT_ATTACK",
    "DEFAULT_DEFENSE",
    "STRATEGIES",
    "generate_trial",
    "interesting_labels",
    "run_campaign",
    "run_diff_campaign",
    "run_diff_cell",
    "run_fuzz_cell",
]

"""The defense × attack cube: security verdicts AND overhead, per cell.

Table I answers "does the defense stop the attack?"; the cube adds the
axis the paper never reports — what each defense *costs* while doing it,
and where two defenses that both claim the threat model disagree.  Every
``(attack, defense)`` cell runs under a private tracer so the existing
metrics registry yields a per-cell **overhead profile**: count, mean and
p50/p95/p99 of the event-loop queue delay and, when a kernel is
installed, of the kernel stage latencies, plus task counts.

The headline comparison is JSKernel vs the DetBrowser backend
(:data:`CUBE_PAIR`): both defend the timing rows, only JSKernel closes
the CVE rows, and their overhead profiles differ in shape — divergent cells
are first-class results (:meth:`CubeResult.divergent_cells`) and are
pinned by the committed fixture ``tests/golden/cube_expected.json``,
which ``tests/test_cube.py`` reproduces cell for cell.

Cells run on the PR-3 sharded engine, so ``parallel=N`` and the
content-addressed result cache work exactly as they do for Table I.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..attacks import attack_names
from ..defenses import CUBE_DEFENSES
from ..telemetry.spans import span
from ..trace import MetricsRegistry, Tracer, capture, current_tracer
from .parallel import Cell, ExperimentEngine

#: The head-to-head pair whose disagreements are the headline result.
CUBE_PAIR: Tuple[str, str] = ("jskernel", "detbrowser")

#: Overhead histogram families merged into per-cell quantile summaries,
#: keyed by the metrics-registry name prefix they aggregate.
OVERHEAD_FAMILIES: Tuple[Tuple[str, str], ...] = (
    ("eventloop.queue_delay_ns.", "queue_delay"),
    ("kernel.confirm_latency_ns.", "kernel_confirm"),
    ("kernel.dispatch_latency_ns.", "kernel_dispatch"),
)

#: Two defended cells whose mean queue delays differ by at least this
#: factor count as an *overhead-profile* divergence.
OVERHEAD_DIVERGENCE_RATIO = 2.0


def overhead_profile(metrics: MetricsRegistry) -> dict:
    """Distil a cell's metrics registry into its overhead profile.

    Each family's histograms are merged by
    :meth:`~repro.trace.metrics.MetricsRegistry.merged_sketch` into
    ``count``, ``mean_ns`` (exact) and ``p50_ns``/``p95_ns``/``p99_ns``
    (to the sketch's 0.5% value resolution), plus event-loop task and
    kernel API call counts.
    """
    profile: dict = {}
    for prefix, key in OVERHEAD_FAMILIES:
        sketch = metrics.merged_sketch(prefix)
        if sketch is None:
            continue
        profile[key] = {
            "count": sketch.count,
            "mean_ns": sketch.mean,
            "p50_ns": sketch.quantile(0.5),
            "p95_ns": sketch.quantile(0.95),
            "p99_ns": sketch.quantile(0.99),
        }
    counters = metrics.snapshot()["counters"]
    profile["tasks"] = sum(
        value for name, value in counters.items() if name.startswith("eventloop.tasks.")
    )
    profile["kernel_api_calls"] = sum(
        value
        for name, value in counters.items()
        if name.startswith("kernel.api_calls.")
    )
    return profile


def run_cube_cell(attack: str, defense: str, seed: int = 0) -> dict:
    """One cube cell: verdict + overhead profile under a private tracer.

    The payload is a pure function of ``(attack, defense, seed)``.  The
    cell's private metrics snapshot is folded into the ambient tracer
    afterwards, so engine-level captures (``--metrics``, telemetry runs)
    see the event-loop and kernel metrics the cell produced.
    """
    from ..attacks import create as create_attack

    tracer = Tracer(enabled=True)
    with capture(tracer):
        result = create_attack(attack).run(defense, seed=seed)
    ambient = current_tracer()
    if ambient.enabled:
        ambient.metrics.merge_snapshot(tracer.metrics.snapshot())
    return {
        "defended": result.defended,
        "detail": result.detail,
        "overhead": overhead_profile(tracer.metrics),
    }


class CubeResult:
    """Outcome of a cube run."""

    def __init__(
        self,
        attacks: Sequence[str],
        defenses: Sequence[str],
        seed: int,
    ):
        self.attacks = list(attacks)
        self.defenses = list(defenses)
        self.seed = seed
        #: attack -> defense -> defended?
        self.verdicts: Dict[str, Dict[str, bool]] = {}
        #: attack -> defense -> detail string
        self.details: Dict[str, Dict[str, str]] = {}
        #: attack -> defense -> overhead profile dict
        self.overhead: Dict[str, Dict[str, dict]] = {}
        #: "attack vs defense: error" strings for poisoned cells.
        self.errors: List[str] = []
        self.computed_cells = 0
        self.cached_cells = 0

    # ------------------------------------------------------------------
    def divergent_cells(self) -> List[dict]:
        """Cells where :data:`CUBE_PAIR` disagrees, by verdict or overhead shape.

        Verdict divergences (one defends, the other leaks) come first;
        overhead divergences (both defend, but mean queue delay differs
        by ≥ :data:`OVERHEAD_DIVERGENCE_RATIO`×) follow.
        """
        left, right = CUBE_PAIR
        found: List[dict] = []
        for attack in self.attacks:
            row = self.verdicts.get(attack, {})
            if left not in row or right not in row:
                continue
            if row[left] != row[right]:
                found.append(
                    {
                        "attack": attack,
                        "kind": "verdict",
                        left: row[left],
                        right: row[right],
                    }
                )
        for attack in self.attacks:
            row = self.verdicts.get(attack, {})
            if not (row.get(left) and row.get(right)):
                continue
            means = {}
            for defense in (left, right):
                family = self.overhead.get(attack, {}).get(defense, {})
                delay = family.get("queue_delay")
                if delay and delay["mean_ns"] > 0:
                    means[defense] = delay["mean_ns"]
            if len(means) == 2:
                ratio = max(means[left], means[right]) / min(
                    means[left], means[right]
                )
                if ratio >= OVERHEAD_DIVERGENCE_RATIO:
                    found.append(
                        {
                            "attack": attack,
                            "kind": "overhead",
                            left: round(means[left], 1),
                            right: round(means[right], 1),
                            "ratio": round(ratio, 2),
                        }
                    )
        return found

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Text cube: verdict grid plus the pair's divergent cells."""
        width = max((len(a) for a in self.attacks), default=10) + 2
        cols = [d[:12] for d in self.defenses]
        lines = [
            "".ljust(width) + " ".join(c.center(12) for c in cols),
        ]
        for attack in self.attacks:
            row = self.verdicts.get(attack, {})
            marks = []
            for defense in self.defenses:
                if defense not in row:
                    marks.append("?".center(12))
                    continue
                mark = "defended" if row[defense] else "VULNERABLE"
                marks.append(mark.center(12))
            lines.append(attack.ljust(width) + " ".join(marks))
        divergent = self.divergent_cells()
        left, right = CUBE_PAIR
        lines.append("")
        lines.append(f"divergent cells ({left} vs {right}):")
        if not divergent:
            lines.append("  (none)")
        for cell in divergent:
            if cell["kind"] == "verdict":
                lines.append(
                    f"  {cell['attack']}: {left}="
                    f"{'defended' if cell[left] else 'VULNERABLE'} "
                    f"{right}={'defended' if cell[right] else 'VULNERABLE'}"
                )
            else:
                lines.append(
                    f"  {cell['attack']}: mean queue delay {left}="
                    f"{cell[left]:.0f}ns {right}={cell[right]:.0f}ns "
                    f"(x{cell['ratio']})"
                )
        if self.errors:
            lines.append("")
            lines.append("errors:")
            lines.extend(f"  {err}" for err in self.errors)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-ready dump (the ``--json`` payload and CI artifact)."""
        return {
            "attacks": self.attacks,
            "defenses": self.defenses,
            "seed": self.seed,
            "pair": list(CUBE_PAIR),
            "verdicts": self.verdicts,
            "details": self.details,
            "overhead": self.overhead,
            "divergent": self.divergent_cells(),
            "errors": self.errors,
            "computed_cells": self.computed_cells,
            "cached_cells": self.cached_cells,
        }


def run_cube(
    attacks: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    seed: int = 0,
    parallel: Optional[int] = None,
    cache=None,
) -> CubeResult:
    """Evaluate the defense × attack cube.

    Defaults to every Table I attack × :data:`~repro.defenses.CUBE_DEFENSES`
    (the four prior defenses plus the JSKernel/DetBrowser head-to-head).
    Each cell is a pure function of ``(attack, defense, seed)`` and runs
    on the sharded engine, so ``parallel``/``cache`` behave exactly as
    they do for :func:`~repro.harness.matrix.run_table1`.
    """
    attacks = list(attacks or attack_names())
    defenses = list(defenses or CUBE_DEFENSES)
    cells = [
        Cell("cube", {"attack": attack, "defense": defense, "seed": seed})
        for attack in attacks
        for defense in defenses
    ]
    engine = ExperimentEngine(workers=parallel, cache=cache)
    with span("cube.run", cells=len(cells), seed=seed):
        results = engine.run(cells)

    outcome = CubeResult(attacks, defenses, seed)
    for attack in attacks:
        outcome.verdicts[attack] = {}
        outcome.details[attack] = {}
        outcome.overhead[attack] = {}
    for result in results:
        attack = result.cell.params["attack"]
        defense = result.cell.params["defense"]
        if result.ok:
            outcome.verdicts[attack][defense] = result.payload["defended"]
            outcome.details[attack][defense] = result.payload["detail"]
            outcome.overhead[attack][defense] = result.payload["overhead"]
        else:
            # poisoned cells count as undefended, like the Table I harness
            outcome.verdicts[attack][defense] = False
            outcome.details[attack][defense] = f"error: {result.error}"
            outcome.overhead[attack][defense] = {}
            outcome.errors.append(f"{attack} vs {defense}: {result.error}")
    outcome.computed_cells = engine.computed
    outcome.cached_cells = engine.cache_hits

    tracer = current_tracer()
    if tracer.enabled:
        tracer.metrics.counter("cube.cells").inc(len(cells))
    return outcome


__all__ = [
    "CUBE_PAIR",
    "CubeResult",
    "overhead_profile",
    "run_cube",
    "run_cube_cell",
]

"""Race detection over happens-before graphs.

A *race* is a pair of accesses to the same shared object, at least one of
them a write, performed by different threads, with neither access ordered
before the other by happens-before.  The accesses come from the
``state.access`` instants the runtime emits for native-heap, SAB,
indexedDB and DOM operations (:mod:`repro.trace.access`).

Patterns are classified for reporting:

* ``use-after-free`` — a heap ``free`` write racing a ``deref`` read:
  the fetch-abort lifecycle bug (CVE-2018-5092) produces exactly this
  pair when worker teardown frees a request that the abort signal still
  dereferences;
* ``use-after-collect`` — a shared-memory (``shm-*``) cell's GC ``free``
  racing any other access: the thread-local-roots collector sweeping an
  object another agent still uses;
* ``write-write`` — two unordered writes;
* ``read-write`` — everything else.

The detector is lock-set aware through the happens-before graph rather
than an explicit lock-set algorithm: ``lock.release`` → ``lock.acquired``
edges (see :mod:`repro.analysis.hbgraph`) totally order the critical
sections of each lock, so accesses correctly guarded by a common lock are
never reported — pinned by the ``shm-toctou-locked`` scenario test.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .hbgraph import HBGraph, build_hb_graph, run_pids


class Race:
    """One unordered conflicting access pair."""

    __slots__ = ("obj", "kind", "pattern", "first", "second")

    def __init__(self, obj: str, kind: str, pattern: str, first, second):
        self.obj = obj
        self.kind = kind
        self.pattern = pattern
        #: The two racing HBEvents, in emission order.
        self.first = first
        self.second = second

    def to_dict(self) -> dict:
        def leg(event):
            return {
                "thread": event.thread,
                "ts_ns": event.ts,
                "op": event.args.get("op", ""),
                "access": event.args.get("access", ""),
            }

        return {
            "obj": self.obj,
            "kind": self.kind,
            "pattern": self.pattern,
            "first": leg(self.first),
            "second": leg(self.second),
        }


def _classify(kind: str, first, second) -> str:
    ops = (first.args.get("op"), second.args.get("op"))
    accesses = {first.args.get("access"), second.args.get("access")}
    if kind == "heap" and "free" in accesses and "deref" in accesses:
        return "use-after-free"
    if kind.startswith("shm-") and "free" in accesses:
        return "use-after-collect"
    if ops == ("write", "write"):
        return "write-write"
    return "read-write"


def detect_races(graph: HBGraph) -> List[Race]:
    """All races in one run's happens-before graph."""
    by_obj: Dict[str, List] = {}
    for event in graph.events:
        if event.name == "state.access":
            by_obj.setdefault(event.args["obj"], []).append(event)

    races: List[Race] = []
    for obj, accesses in by_obj.items():
        for i, first in enumerate(accesses):
            for second in accesses[i + 1 :]:
                if first.thread == second.thread:
                    continue
                if first.args.get("op") != "write" and second.args.get("op") != "write":
                    continue
                if graph.happens_before(first.index, second.index):
                    continue
                kind = first.args.get("kind", "")
                races.append(
                    Race(obj, kind, _classify(kind, first, second), first, second)
                )
    return races


def analyze_races(events: List[dict], pid: Optional[int] = None) -> dict:
    """Race report for one run of a capture (JSON-shaped)."""
    graph = build_hb_graph(events, pid=pid)
    races = detect_races(graph)
    accesses = sum(1 for e in graph.events if e.name == "state.access")
    return {
        "pid": graph.pid,
        "events": len(graph.events),
        "hb_edges": graph.edge_count(),
        "shared_accesses": accesses,
        "race_count": len(races),
        "races": [race.to_dict() for race in races],
    }


def analyze_scenario(attack_name: str, defense_name: str, seed: int = 0) -> dict:
    """Run a scenario traced and report its races (all runs combined)."""
    # imported here: scenario -> attacks -> analysis would otherwise cycle
    from .scenario import run_traced_scenario

    tracer, outcome = run_traced_scenario(attack_name, defense_name, seed=seed)
    reports = [analyze_races(tracer.events, pid=pid) for pid in run_pids(tracer.events)]
    return {
        "scenario": attack_name,
        "defense": defense_name,
        "seed": seed,
        "outcome": outcome,
        "race_count": sum(r["race_count"] for r in reports),
        "runs": reports,
    }


def format_races(report: dict) -> str:
    """Human-readable rendering of an :func:`analyze_scenario` report."""
    lines = [
        f"scenario:  {report['scenario']} vs {report['defense']} (seed {report['seed']})",
        f"outcome:   {report['outcome']}",
        f"races:     {report['race_count']}",
    ]
    for run in report["runs"]:
        lines.append(
            f"  run {run['pid']}: {run['events']} events, "
            f"{run['hb_edges']} hb edges, {run['shared_accesses']} shared accesses"
        )
        for race in run["races"]:
            lines.append(
                f"    [{race['pattern']}] {race['obj']}: "
                f"{race['first']['access'] or race['first']['op']} on "
                f"{race['first']['thread']} @ {race['first']['ts_ns']} ns vs "
                f"{race['second']['access'] or race['second']['op']} on "
                f"{race['second']['thread']} @ {race['second']['ts_ns']} ns"
            )
    if report["race_count"] == 0:
        lines.append("  no unordered conflicting accesses: the schedule is race-free")
    return "\n".join(lines)

"""The benchmark's three workloads, driven through the public harness functions.

Each workload runs serially in one process, with no worker pool and the
result cache off (``cache=None``).  A workload turns one seeded run into
four things ``run.py`` checks and reports:

* ``items`` / ``failed``: the unit of work (Table I cells, fuzz trials,
  population pages) attempted in the pass, and how many of them failed;
* ``summary``: a small, readable view of the output, stored beside the
  digest in ``references.json``;
* ``digest``: sha256 of the whole canonical output, compared against the
  pinned reference for the seed;
* ``problems``: invariants that hold for every seed, so a seed with no
  pinned reference is still checked against something independent of
  the run itself.

Nothing from ``repro`` is imported at module level: the child process
imports it inside :meth:`Workload.setup`, which is part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

#: The event backstop ``python -m repro fuzz`` sets for fuzz trials
#: (``repro.__main__.FUZZ_MAX_EVENTS``); the smoke test keeps them equal.
FUZZ_MAX_EVENTS = 2_000_000


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """One benchmark workload (subclasses fill in the hooks)."""

    #: Workload name as given to ``--workload``.
    name = ""
    #: Engine cell kind whose runner the workload's cells go through.
    cell_kind = ""
    #: Default size of one pass (meaning depends on the workload).
    default_size = 0
    #: Environment the child process needs beyond the clean defaults.
    env: Dict[str, str] = {}

    def setup(self) -> None:
        """Import the harness and build the attack and defense registries."""
        from repro.attacks import attack_names
        from repro.defenses import available

        attack_names()
        available()

    def run(self, seed: int, size: int):
        """Run one pass and return the raw harness output."""
        raise NotImplementedError

    def evaluate(self, output, size: int) -> dict:
        """``items``, ``failed``, ``summary``, ``digest``, ``problems``."""
        raise NotImplementedError


class TableOne(Workload):
    """``run_table1()`` over every attack × Table I defense (176 cells).

    ``size`` is the number of attack rows (22 = the full table).
    """

    name = "table1"
    cell_kind = "table1"
    default_size = 22

    def run(self, seed: int, size: int):
        from repro.attacks import attack_names
        from repro.harness.matrix import run_table1

        return run_table1(attacks=attack_names()[:size], seed=seed, cache=None)

    def evaluate(self, output, size: int) -> dict:
        cells = sum(len(row) for row in output.matrix.values())
        defended = sum(1 for row in output.matrix.values() for v in row.values() if v)
        disagreements = output.disagreements()
        summary = {
            "cells": cells,
            "defended": defended,
            "paper_agreement": f"{cells - len(disagreements)}/{cells}",
            "disagreements": disagreements,
            "errors": output.errors,
        }
        problems: List[str] = []
        expected_cells = size * len(output.defenses)
        if cells != expected_cells:
            problems.append(f"{cells} cells, expected {expected_cells}")
        if output.errors:
            problems.append(f"{len(output.errors)} cell errors")
        # the paper's headline claim, which no seed may break
        leaks = [a for a, row in output.matrix.items() if not row.get("jskernel", True)]
        if leaks:
            problems.append(f"jskernel leaks: {leaks}")
        return {
            "items": cells,
            "failed": len(output.errors),
            "summary": summary,
            "digest": digest({"matrix": output.matrix, "details": output.details}),
            "problems": problems,
        }


class FuzzDiff(Workload):
    """``run_diff_campaign()`` with its defaults: cve-2018-5092, jskernel
    vs detbrowser, strategy ``mixed``, witnesses capped at 5 like the CLI.

    ``size`` is the trial budget.
    """

    name = "fuzz-diff"
    cell_kind = "fuzz-diff"
    default_size = 1000
    env = {"REPRO_MAX_EVENTS": str(FUZZ_MAX_EVENTS)}

    def run(self, seed: int, size: int):
        from repro.explore.campaign import run_diff_campaign

        return run_diff_campaign(seed=seed, budget=size, max_witnesses=5, cache=None)

    def evaluate(self, output, size: int) -> dict:
        summary = {
            "trials": output["trials"],
            "attempted_trials": output["attempted_trials"],
            "failed_shards": output["failed_shards"],
            "divergent": output["divergent"],
            "signatures": output["signatures"],
            "witness_trials": [w["trial"] for w in output["witnesses"]],
            "witness_overflow": output["witness_overflow"],
        }
        problems: List[str] = []
        if output["attempted_trials"] != size:
            problems.append(f"{output['attempted_trials']} trials attempted, expected {size}")
        if output["failed_shards"]:
            problems.append(f"{output['failed_shards']} failed shards: {output['errors']}")
        if sum(output["signatures"].values()) != output["divergent"]:
            problems.append("signature tally does not sum to the divergent count")
        if output["divergent"] > output["trials"]:
            problems.append("more divergent schedules than trials")
        # a divergence is two different "a / b" failure signatures
        same = [sig for sig in output["signatures"] if len(set(sig.split(" / "))) != 2]
        if same:
            problems.append(f"signatures that do not diverge: {same}")
        kept = {
            "summary": summary,
            "witnesses": [w["report"] for w in output["witnesses"]],
        }
        return {
            "items": output["attempted_trials"],
            "failed": output["attempted_trials"] - output["trials"],
            "summary": summary,
            "digest": digest(kept),
            "problems": problems,
            "divergent_ratio": output["divergent"] / max(output["trials"], 1),
        }


class Population(Workload):
    """``population_sweep(size, mode="model")``: thousands of tiny cells
    streamed through ``ExperimentEngine.stream``, no simulator.

    ``size`` is the page count.
    """

    name = "population"
    cell_kind = "population"
    default_size = 40_000

    def run(self, seed: int, size: int):
        from repro.workloads.population import population_sweep

        return population_sweep(size, seed=seed, mode="model", cache=None)

    def evaluate(self, output, size: int) -> dict:
        summary = {
            "pages": output["pages"],
            "errors": output["errors"],
            "configs": output["configs"],
            "archetypes": output["archetypes"],
        }
        problems: List[str] = []
        if output["pages"] != size:
            problems.append(f"{output['pages']} pages, expected {size}")
        if output["errors"] or output["error_overflow"]:
            problems.append(f"page errors: {output['errors']}")
        for group in ("configs", "archetypes"):
            stats = output[group]
            if sum(s["count"] for s in stats.values()) != output["pages"]:
                problems.append(f"{group} counts do not sum to the page count")
            for key, s in stats.items():
                marks = [s[q] for q in ("p50", "p95", "p99") if s.get(q) is not None]
                if marks != sorted(marks) or any(m <= 0 for m in marks):
                    problems.append(f"{group}/{key} quantiles out of order: {marks}")
        return {
            "items": size,
            "failed": size - output["pages"],
            "summary": summary,
            "digest": digest(summary),
            "problems": problems,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (TableOne(), FuzzDiff(), Population())
}

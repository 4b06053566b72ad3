"""ABBA lock-ordering deadlock across two workers.

Worker A takes ``L1`` then, a couple of milliseconds later (a separate
task — run-to-completion means a single task could never interleave),
asks for ``L2``.  Worker B does the mirror image.  On a legacy browser
both first acquisitions land before either second one, so each worker
blocks on the lock the other holds: a wait-for cycle the heap records as
a :data:`SharedHeap.deadlocks` entry the instant it forms.  The parked
continuations never run and the simulation simply drains — which is why
the scenario terminates instead of hanging the harness.

JSKernel's sharedmem policy vetoes the cycle *by construction*: lock
acquisitions are kernel API calls checked against the canonical
(allocation-order) lock order, and worker B's out-of-order request for
``L1`` while holding ``L2`` raises ``SecurityError`` before it can ever
block.  Clock-only defenses (Fuzzyfox, DetBrowser) do not police locks
and stay vulnerable — availability is outside their threat model.

This scenario is also the fuzz walkthrough's target: the ``deadlock``
oracle flags any run whose trace contains a ``sharedmem.deadlock``
instant, ddmin minimises the witness's perturbation spec, and replay
reproduces the identical cycle string.
"""

from __future__ import annotations

from contextlib import closing

from ...defenses import make_browser
from ...errors import SecurityError
from ...runtime.rng import hash_seed
from ...runtime.simtime import ms
from ..base import Attack, AttackResult

#: Gap between a worker's first and second acquisition (separate tasks).
SECOND_ACQUIRE_DELAY_MS = 2.0


class LockOrderDeadlockAttack(Attack):
    """Force the ABBA wait-for cycle; succeed when it forms."""

    name = "lock-order-deadlock"
    row = "Lock-ordering deadlock (extension)"
    group = "race"
    timeout_ms = 3_000
    page_url = "https://attacker.example/"

    def run(self, defense_name: str, seed: int = 0) -> AttackResult:
        with closing(make_browser(defense_name, seed=hash_seed(seed, self.name))) as browser:
            page = browser.open_page(self.page_url)

            def attack(scope) -> None:
                lock1 = scope.sharedmem.Lock("L1")
                lock2 = scope.sharedmem.Lock("L2")

                def make_worker(first, second):
                    def worker_main(ws) -> None:
                        def take_second() -> None:
                            second.acquire(
                                lambda: (second.release(), first.release())
                            )

                        first.acquire(
                            lambda: ws.setTimeout(take_second, SECOND_ACQUIRE_DELAY_MS)
                        )

                    return worker_main

                scope.Worker(make_worker(lock1, lock2))
                scope.Worker(make_worker(lock2, lock1))

            blocked = ""
            try:
                page.run_script(attack)
                browser.run(until=ms(self.timeout_ms))
            except SecurityError as veto:
                blocked = str(veto)

            deadlocks = browser.sharedmem.deadlocks
            if deadlocks:
                detail = f"deadlock: {deadlocks[0]['cycle']}"
                return AttackResult(self.name, defense_name, True, mode="race", detail=detail)
            detail = f"blocked: {blocked}" if blocked else "no deadlock"
            return AttackResult(self.name, defense_name, False, mode="race", detail=detail)

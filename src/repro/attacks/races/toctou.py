"""Time-of-check-to-time-of-use on a SharedDict: the double spend.

Two withdrawal workers share an account dict.  Each checks the balance
covers its withdrawal, "validates" for a few hundred microseconds, then
debits in a *later task* — the check-act gap every TOCTOU needs.  When
both checks land before either debit, both withdrawals pass a check the
other invalidates and the balance goes negative.

The locked variant wraps check+debit in one :class:`SharedLock` critical
section.  It never overdrafts — and, because lock release→acquire edges
order the two critical sections, the lock-set-aware race detector must
produce **zero** race reports for it (pinned by test), while the racy
variant's unordered cross-worker write pairs are flagged.

The cube row documents a scoping fact worth stating outright: kernel
mediation paces and polices accesses but provides no *atomicity*, so the
racy variant stays exploitable under every browser defense — the fix is
the locking discipline, not the browser.
"""

from __future__ import annotations

from contextlib import closing

from ...defenses import make_browser
from ...errors import SecurityError
from ...runtime.rng import hash_seed
from ..base import Attack, AttackResult, run_until_key

#: Opening balance and per-worker withdrawal: one withdrawal fits, two
#: overdraft.
OPENING_BALANCE = 100
WITHDRAWAL = 70

#: Simulated server-side validation between check and debit.
VALIDATION_MS = 0.4


class SharedDictToctouAttack(Attack):
    """Race two check-then-act withdrawals on a shared account."""

    name = "shm-toctou"
    row = "SharedDict TOCTOU double spend (extension)"
    group = "race"
    #: Whether withdrawals take the account lock (the fixed variant).
    locked = False
    timeout_ms = 3_000
    page_url = "https://attacker.example/"

    def run(self, defense_name: str, seed: int = 0) -> AttackResult:
        with closing(make_browser(defense_name, seed=hash_seed(seed, self.name))) as browser:
            page = browser.open_page(self.page_url)
            box: dict = {}
            locked = self.locked

            def attack(scope) -> None:
                account = scope.sharedmem.Dict("account")
                account.set("balance", OPENING_BALANCE)
                lock = scope.sharedmem.Lock("account")

                def withdraw_worker(ws) -> None:
                    def debit() -> None:
                        account.set("balance", account.get("balance") - WITHDRAWAL)

                    def attempt() -> None:
                        if account.get("balance") >= WITHDRAWAL:
                            ws.busy_work(VALIDATION_MS)
                            # the act lands in a later task: the TOCTOU gap
                            ws.setTimeout(debit, 1)

                    def attempt_locked() -> None:
                        def critical() -> None:
                            if account.get("balance") >= WITHDRAWAL:
                                ws.busy_work(VALIDATION_MS)
                                debit()
                            lock.release()

                        lock.acquire(critical)

                    if locked:
                        attempt_locked()
                    else:
                        attempt()

                scope.Worker(withdraw_worker)
                scope.Worker(withdraw_worker)

                def report() -> None:
                    if locked:
                        # a lock-disciplined program locks *all* accesses,
                        # the audit read included
                        def critical() -> None:
                            box.setdefault("balance", account.get("balance"))
                            lock.release()

                        lock.acquire(critical)
                    else:
                        box.setdefault("balance", account.get("balance"))

                scope.setTimeout(report, 30)

            try:
                page.run_script(attack)
                balance = run_until_key(browser, box, "balance", self.timeout_ms)
            except SecurityError as blocked:
                return AttackResult(
                    self.name, defense_name, False, mode="race",
                    detail=f"blocked: {blocked}",
                )
            overdraft = balance < 0
            detail = (
                f"overdraft: balance={balance}" if overdraft
                else f"no overdraft: balance={balance}"
            )
            return AttackResult(
                self.name, defense_name, overdraft, mode="race", detail=detail
            )


class SharedDictToctouLockedAttack(SharedDictToctouAttack):
    """The same withdrawals under the account lock: the fix."""

    name = "shm-toctou-locked"
    row = "SharedDict TOCTOU, lock-disciplined (extension)"
    locked = True

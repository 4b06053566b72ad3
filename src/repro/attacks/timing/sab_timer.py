"""SharedArrayBuffer counter timer (Schwarz et al. [12]) — extension row.

Not a Table I row: the paper notes SAB "is rarely used and currently
disabled in many browsers due to Spectre", but §III-E2 still routes every
SAB access through the kernel.  This extension attack exercises that
path: a worker spins a shared counter at a known rate and the main thread
reads it around a secret operation — a nanosecond-class timer on legacy
browsers.

JSKernel's slot-paced SAB interface degrades the channel to the kernel's
message-grid resolution (1 ms): sub-grid secrets become indistinguishable
while coarse differences survive, exactly the degradation-not-elimination
DESIGN.md §7 documents.
"""

from __future__ import annotations

from ..base import TimingAttack, run_until_key

#: Worker increment rate (counts per millisecond).
COUNTER_RATE = 1_000.0

#: Sub-grid secrets: distinguishable at ns resolution, identical on a
#: 1 ms grid.
SECRETS_MS = {"short": 0.22, "long": 0.67}


class SabTimerAttack(TimingAttack):
    """Measure a sub-millisecond operation with a SAB counter."""

    name = "sab-timer"
    row = "SharedArrayBuffer timer [12] (extension)"
    group = "extension"
    secret_a = "short"
    secret_b = "long"

    def measure(self, browser, page, secret: str) -> float:
        """Counter delta across the secret operation."""
        box = {}
        duration_ms = SECRETS_MS[secret]

        def attack(scope) -> None:
            counter = scope.SharedArrayBuffer(8)

            def worker_main(ws) -> None:
                # tight increment loop, declared as a rate activity
                counter.start_increment_activity(COUNTER_RATE)
                ws.postMessage("spinning")

            worker = scope.Worker(worker_main)

            def on_spinning(_event) -> None:
                before = counter.load()
                scope.busy_work(duration_ms)
                after = counter.load()
                box["measurement"] = float(after - before)
                worker.terminate()

            worker.onmessage = on_spinning

        page.run_script(attack)
        return run_until_key(browser, box, "measurement", self.timeout_ms)

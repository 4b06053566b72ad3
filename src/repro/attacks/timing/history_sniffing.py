"""History sniffing via repaint timing (Stone [9]).

The classic ``:visited`` attack: style resolution for a large batch of
links is more expensive when the visited selector matches, and the extra
style/layout cost delays the animation frame that performs it.

The adversary reads the delay through two implicit channels at once
(real attackers use whatever survives the deployed defense):

* **rAF timestamp deltas** — works whenever frame timestamps retain
  sub-frame precision (legacy, Fuzzyfox's 1 ms fuzz, Chrome Zero);
* **worker-flood counts between frames** — the paper's Listing 1 clock:
  a parallel worker floods postMessage and the count of deliveries
  between consecutive frames measures the gap without any clock API,
  defeating coarse clamps (Tor's 100 ms).

The probe is :data:`LINK_COUNT` links to the target, built in one task:
each link is a ``createElement("a")`` (costed), gets its ``href`` by a
raw attribute write, and all of them go under ``<body>`` in one silent
batch (``body._insert(*links)``: no cost, no trace event), then one
``mark_dirty`` invalidates the frame that resolves their style.  The
batch is what keeps this row cheap to simulate: 192 trials per Table I
run build 422k links.
"""

from __future__ import annotations

from ..base import TimingAttack, run_until_key
from ..implicit_clocks import WorkerFloodClock

TARGET_URL = "https://secret-bank.example/account"

#: Number of links appended; sized so the visited-style surcharge pushes
#: the restyle past every browser's frame budget (Edge has 24 ms frames).
LINK_COUNT = 2200

FRAMES = 6


class HistorySniffingAttack(TimingAttack):
    """Was TARGET_URL visited by this browser?"""

    name = "history-sniffing"
    row = "History Sniffing [9]"
    group = "raf"
    secret_a = "visited"
    secret_b = "unvisited"
    trials = 12  # fuzzyfox's heavy pause noise needs a few more repeats
    timeout_ms = 5_000

    def setup(self, browser, page, secret: str) -> None:
        """Prime the browsing history per the secret."""
        if secret == "visited":
            browser.visit(TARGET_URL)

    def measure(self, browser, page, secret: str) -> dict:
        """Max frame gap, in rAF-timestamp ms and in flood counts."""
        box = {}

        def attack(scope) -> None:
            document = scope.document
            flood = WorkerFloodClock(scope, flood_period_ms=0.25)
            timestamps = []
            counts = []

            def frame(timestamp: float) -> None:
                index = len(timestamps)
                timestamps.append(timestamp)
                counts.append(flood.read())
                if index == 1:
                    links = [document.create_element("a") for _ in range(LINK_COUNT)]
                    for link in links:
                        link.attributes["href"] = TARGET_URL  # bulk, silent
                    document.body._insert(*links)
                    document.mark_dirty()
                if index + 1 < FRAMES:
                    scope.requestAnimationFrame(frame)
                else:
                    flood.terminate()
                    ts_deltas = [
                        timestamps[i + 1] - timestamps[i]
                        for i in range(len(timestamps) - 1)
                    ]
                    count_deltas = [
                        counts[i + 1] - counts[i] for i in range(len(counts) - 1)
                    ]
                    box["measurement"] = {
                        "raf_delta_ms": max(ts_deltas),
                        "flood_count": max(count_deltas),
                    }

            # let the worker spin up before measuring
            scope.setTimeout(lambda: scope.requestAnimationFrame(frame), 8)

        page.run_script(attack)
        return run_until_key(browser, box, "measurement", self.timeout_ms)

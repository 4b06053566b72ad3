"""Clock-edge attack (Kohlbrenner & Shacham [6]).

A coarse clock with *exact* grid edges still leaks sub-resolution time:
align to an edge, run the secret operation, then count cheap operations
until the next edge — the count is the secret's phase within the tick.
Works against any deterministic quantised clock (legacy browsers, Tor's
100 ms clamp); fails against fuzzy edges (Fuzzyfox, Chrome Zero) and
against JSKernel's logical clock, whose edges are a deterministic
function of the attacker's own call count.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..base import TimingAttack

#: Cheap-op ladder used to probe the clock resolution (ms per op).
PROBE_LADDER_MS = (0.0002, 0.003, 0.04, 0.6, 4.0)
PROBE_MAX_ITERS = 700

#: Secret durations to distinguish (ms); chosen so their phases differ
#: modulo every evaluated clock resolution (5 µs, 1 ms, 100 µs, 100 ms).
SECRET_A_MS = 0.313
SECRET_B_MS = 0.747


def spin_to_edge(scope, op_ms: float, max_iters: int) -> Optional[int]:
    """Busy-spin until the displayed clock changes; returns iterations."""
    t0 = scope.performance.now()
    for i in range(max_iters):
        scope.busy_work(op_ms)
        if scope.performance.now() != t0:
            return i + 1
    return None


def calibrate(scope) -> Optional[Tuple[float, float]]:
    """Estimate the clock resolution; pick a counting op ~1/30 of it."""
    for op_ms in PROBE_LADDER_MS:
        iters = spin_to_edge(scope, op_ms, PROBE_MAX_ITERS)
        if iters is not None and iters > 2:
            resolution_est = iters * op_ms
            return resolution_est, max(resolution_est / 30, 0.0002)
    return None


class ClockEdgeAttack(TimingAttack):
    """Distinguish two sub-resolution durations via edge phase."""

    name = "clock-edge"
    row = "Clock Edge [6]"
    group = "setTimeout"
    secret_a = "short"
    secret_b = "long"
    trials = 10

    secrets_ms = {"short": SECRET_A_MS, "long": SECRET_B_MS}

    def measure(self, browser, page, secret: str) -> float:
        """Phase estimate (ms) of the secret within one clock tick."""
        box = {}
        duration_ms = self.secrets_ms[secret]

        def attack(scope) -> None:
            calibrated = calibrate(scope)
            if calibrated is None:
                box["measurement"] = -1.0
                return
            _resolution, op_ms = calibrated
            # align to an edge, run the secret, count to the next edge
            spin_to_edge(scope, op_ms, PROBE_MAX_ITERS * 4)
            scope.busy_work(duration_ms)
            count = spin_to_edge(scope, op_ms, PROBE_MAX_ITERS * 4)
            if count is None:
                box["measurement"] = -1.0
                return
            box["measurement"] = count * op_ms

        page.run_script(attack)
        browser.run(stop=lambda: "measurement" in box)
        return float(box["measurement"])

"""A fuzzy-time scheduling policy (paper §III-D1 mentions "fuzzy time" as
an alternative scheduling algorithm).

Instead of canonical grid slots, predicted times carry seeded random
jitter.  This is strictly weaker than determinism — an attacker averaging
over many trials recovers the signal — and exists (a) for fidelity to the
paper's design space and (b) as the baseline of the ``jskernel-fuzzy``
ablation, which shows *why* the deterministic policy is the one that
works.
"""

from __future__ import annotations

import random
from typing import Optional

from ..policy import Policy


class FuzzySchedulingPolicy(Policy):
    """Grid slots + bounded random jitter."""

    name = "fuzzy-scheduling"
    kind = "general"
    enforces_order = True

    def __init__(self, rng: Optional[random.Random] = None, jitter_fraction: float = 0.5):
        self.rng = rng or random.Random(0x5EED)
        if not 0.0 <= jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        self.jitter_fraction = jitter_fraction

    def predict(self, event_kind: str, kspace, hint: Optional[int] = None) -> Optional[int]:
        """Real-time-anchored slot plus uniform jitter.

        This is fuzzy *time*, not determinism: events dispatch near when
        they would naturally, plus noise — so measurements remain
        correlated with real durations and averaging recovers them.
        """
        grid = kspace.grid.grid_for(event_kind)
        base = max(kspace.loop.sim.now, kspace.clock.now)
        if event_kind in ("timeout", "interval", "media") and hint is not None:
            base += max(hint, kspace.grid.min_lead_ns)
        jitter = self.rng.randint(0, int(grid * self.jitter_fraction))
        return base + jitter

"""Run one (attack, defense) scenario under a trace capture.

The analysis commands (races / determinism / critpath) all start the same
way: pick a Table I scenario, run it once under a fresh
:class:`~repro.trace.tracer.Tracer`, and hand the capture to the
analyser.  Timing attacks are run as a single trial (one browser, one
measurement) so the capture contains exactly one run; CVE attacks run
their full triggering sequence.
"""

from __future__ import annotations

from typing import Tuple

from ..attacks.base import TimingAttack
from ..attacks.registry import create as create_attack
from ..errors import ReproError
from ..runtime.rng import hash_seed
from ..trace import Tracer, capture


def run_traced_scenario(
    attack_name: str,
    defense_name: str,
    seed: int = 0,
) -> Tuple[Tracer, str]:
    """Run ``attack_name`` against ``defense_name`` once, traced.

    Returns ``(tracer, outcome)`` where ``outcome`` summarises how the
    scenario ended (``"completed"``, ``"leak obtained"``, ``"crash: ..."``
    — CVE attacks absorb their crash internally and report it in the
    result detail).
    """
    attack = create_attack(attack_name)
    tracer = Tracer(enabled=True)
    with capture(tracer):
        try:
            if isinstance(attack, TimingAttack):
                # one trial per secret: both code paths of the channel run
                # (e.g. the cached AND the network-bound branch), each in
                # its own browser/run within the capture
                for secret in (attack.secret_a, attack.secret_b):
                    attack.run_trial(
                        defense_name,
                        secret,
                        hash_seed(seed, f"analyze:{attack_name}:{defense_name}:{secret}"),
                    )
                outcome = "completed"
            else:
                result = attack.run(defense_name, seed=seed)
                outcome = result.detail or ("triggered" if result.success else "defended")
        except ReproError as exc:
            # crashes escaping a non-CVE path are still analysable: the
            # capture holds everything emitted up to the crash
            outcome = f"{type(exc).__name__}: {exc}"
    return tracer, outcome

"""Fuzzyfox (Kohlbrenner & Shacham, USENIX Security 2016).

Two mechanisms, both randomized:

* **fuzzy clocks** — every explicit clock reports a value that only moves
  forward at randomised instants (:class:`FuzzyClockPolicy`), killing the
  clock-edge attack;
* **pause tasks** — randomly sized pause tasks are injected into every
  event loop, degrading every *implicit* clock into a noisy one.  Noise,
  unlike determinism, can be averaged away — which is why Table I still
  marks Fuzzyfox vulnerable to most implicit-clock attacks, and why the
  paper's Figure 3 shows it among the slowest configurations.
"""

from __future__ import annotations

from ..runtime.clock import FuzzyClockPolicy
from ..runtime.simtime import ms
from ..runtime.task import TaskSource
from .backend import ClockSlot, DefenseBackend, SchedulerSlot, ScopeSlot


class Fuzzyfox(DefenseBackend):
    """Fuzzy time + event-loop pause tasks (Firefox variant)."""

    name = "fuzzyfox"
    base_browser = "firefox"
    capabilities = frozenset({"clock", "scheduler", "scope"})

    #: Fuzzy-clock update grain.
    FUZZ_RESOLUTION_NS = ms(1)
    #: Mean gap between pause tasks (drawn from half to twice this).
    PAUSE_INTERVAL_NS = ms(1)
    #: Largest cost of one pause task.
    PAUSE_MAX_COST_NS = ms(8)

    def clock_slot(self, browser) -> ClockSlot:
        """Fuzzy clocks on every time source, animation/media included."""
        rng = browser.rng.stream("fuzzyfox")
        return ClockSlot(
            policy_factory=lambda: FuzzyClockPolicy(self.FUZZ_RESOLUTION_NS, rng),
            animation_policy_factory=lambda: FuzzyClockPolicy(
                self.FUZZ_RESOLUTION_NS, rng
            ),
        )

    def scheduler_slot(self, browser) -> SchedulerSlot:
        """Pause pumps degrade implicit clocks on every event loop."""
        return SchedulerSlot(
            page_hook=lambda page: self._start_pump(browser, page.loop),
            worker_hook=lambda agent: self._start_pump(browser, agent.loop),
        )

    def scope_slot(self, browser) -> ScopeSlot:
        """Compatibility fragility of the heavily patched C++ build.

        Sporadic loading errors (paper §V-B1 attributes Fuzzyfox's
        non-time incompatibilities to exactly this).
        """
        return ScopeSlot(
            page_hook=lambda page: setattr(page, "load_failure_rate", 0.3)
        )

    def _start_pump(self, browser, loop) -> None:
        rng = browser.rng.stream(f"fuzzyfox-pause:{loop.name}")

        def pause() -> None:
            if loop.stopped:
                return
            cost = rng.randint(0, self.PAUSE_MAX_COST_NS)
            delay = rng.randint(self.PAUSE_INTERVAL_NS // 2, self.PAUSE_INTERVAL_NS * 2)
            loop.post(
                pause,
                delay=delay,
                cost=cost,
                source=TaskSource.PAUSE,
                label="fuzzyfox-pause",
            )

        loop.post(pause, delay=self.PAUSE_INTERVAL_NS, source=TaskSource.PAUSE,
                  label="fuzzyfox-pause")

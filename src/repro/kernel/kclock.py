"""The kernel logical clock (paper §III-C2).

"A clock in JSKernel is simply a counter that ticks based on certain
information, which could be a physical clock tick or specific API calls."

Our kernel clock ticks in two ways:

* **per API call** — every kernel-interposed API call advances the clock
  by a fixed quantum.  Two consecutive ``performance.now()`` calls always
  differ by exactly the quantum, so counting cheap operations between
  clock edges (the clock-edge attack) learns nothing;
* **per event dispatch** — the dispatcher ticks the clock *to* each
  event's predicted time, so all user-visible event timestamps come from
  the deterministic predicted-time axis.

The display API quantises onto a coarse grid, like a real clock's
resolution.
"""

from __future__ import annotations

from ..runtime.simtime import MS, quantize, to_ms, us

#: Clock advance per kernel API call.
DEFAULT_API_TICK = us(10)
#: Display granularity of the kernel clock.
DEFAULT_DISPLAY_RESOLUTION = MS


class KernelClock:
    """Deterministic logical clock for one kernel thread."""

    def __init__(
        self,
        api_tick_ns: int = DEFAULT_API_TICK,
        display_resolution_ns: int = DEFAULT_DISPLAY_RESOLUTION,
    ):
        self.api_tick_ns = api_tick_ns
        self.display_resolution_ns = display_resolution_ns
        self._now = 0

    # ------------------------------------------------------------------
    # ticking API (paper: "tick either by or to a certain value"): by the
    # API quantum, or to an event's predicted time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current kernel time in ns (internal, full precision)."""
        return self._now

    def tick_to(self, target_ns: int) -> int:
        """Advance the clock to ``target_ns`` (never backwards)."""
        if target_ns > self._now:
            self._now = target_ns
        return self._now

    def api_tick(self) -> int:
        """The per-API-call tick: advance by the fixed quantum."""
        self._now += self.api_tick_ns
        return self._now

    # ------------------------------------------------------------------
    # displaying API
    # ------------------------------------------------------------------
    def display_ns(self) -> int:
        """Quantised kernel time in ns."""
        return quantize(self._now, self.display_resolution_ns)

    def display_ms(self) -> float:
        """Quantised kernel time in float ms (performance.now shape)."""
        return to_ms(self.display_ns())


class KernelPerformance:
    """The ``performance`` object the kernel exposes to user space.

    Every call ticks the kernel clock (that is the point: observable time
    advances with the program's own actions, not with physical time).
    """

    def __init__(self, clock: KernelClock, sim):
        self._clock = clock
        self._sim = sim

    def now(self) -> float:
        """``performance.now()`` on the kernel time axis."""
        self._sim.consume(200)  # real cost of crossing the kernel boundary
        self._clock.api_tick()
        return self._clock.display_ms()

    @property
    def time_origin(self) -> float:
        """``performance.timeOrigin`` (kernel epoch is always 0)."""
        return 0.0


class KernelDate:
    """``Date.now()`` backed by the kernel clock."""

    EPOCH_MS = 1_577_836_800_000

    def __init__(self, clock: KernelClock, sim):
        self._clock = clock
        self._sim = sim

    def now(self) -> int:
        """``Date.now()`` in kernel milliseconds."""
        self._sim.consume(200)
        self._clock.api_tick()
        return self.EPOCH_MS + int(self._clock.display_ms())

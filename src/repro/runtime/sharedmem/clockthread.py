"""The counter-thread clock (Hacky Racers, Xiao & Ainsworth).

A fine-grained timer needs no clock API at all: a helper thread spins an
``Atomics.add`` loop on a shared cell and the measuring thread brackets
the secret operation with two loads.  Clock-fuzzing defenses (Fuzzyfox,
Tor's 100 ms clamp) interpose on the *explicit* clocks — they never see
this one, which is exactly the paper-extending bypass the
``counter-thread-clock`` attack pins.

Defenses that mediate every shared access do see it: JSKernel's
sharedmem policy paces the loads onto the kernel grid, and DetBrowser's
metronome answers loads from the reader's deterministic clock.
"""

from __future__ import annotations

from .atomics import AtomicCell
from .heap import SharedHeap

#: Default spin rate (counts per millisecond) — fast enough that two
#: loads a few hundred microseconds apart differ by hundreds of counts.
DEFAULT_RATE_PER_MS = 1_000.0


class CounterThreadClock:
    """A shared spin counter read as a timer."""

    def __init__(self, heap: SharedHeap, label: str = "counter-clock"):
        self.heap = heap
        self.atom = AtomicCell(heap, label=label)

    @property
    def cell(self):
        """The backing cell (lets the clock be stored in shared objects)."""
        return self.atom.cell

    # -- helper-thread side --------------------------------------------
    def start(self, rate_per_ms: float = DEFAULT_RATE_PER_MS) -> None:
        """Begin the tight increment loop (declared as a rate activity)."""
        self.atom.start_spin(rate_per_ms)

    def stop(self) -> None:
        """Freeze the counter."""
        self.atom.stop_spin()

    @property
    def running(self) -> bool:
        return self.atom.spinning

    # -- measuring side -------------------------------------------------
    def read(self) -> int:
        """One timer sample: a policy-interposed atomic load."""
        return self.atom.load()

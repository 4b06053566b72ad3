"""KernelSpace: the kernel instance owned by one thread.

Paper §III-E1: "a kernel thread maintains a separate event queue and
clock from the main thread" — every JavaScript thread (the main thread
and each worker) gets its own :class:`KernelSpace` bundling the kernel
objects (queue + clock), the scheduler and the dispatcher, plus the saved
native API references the kernel captured before redefining them.
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import SecurityError
from ..runtime.eventloop import EventLoop
from .dispatcher import Dispatcher
from .kclock import KernelClock
from .kobjects import KernelEventQueue
from .policy import Policy, SchedulingGrid
from .scheduler import Scheduler


class KernelSpace:
    """Kernel objects + scheduler + dispatcher for one thread."""

    def __init__(
        self,
        loop: EventLoop,
        policy: Policy,
        grid: SchedulingGrid,
        label: str = "kernel",
    ):
        self.loop = loop
        self.policy = policy
        self.grid = grid
        self.label = label
        self.queue = KernelEventQueue(loop.sim, f"kernel:{label}")
        self.clock = KernelClock()
        self.scheduler = Scheduler(self)
        self.dispatcher = Dispatcher(self)
        #: Native API references captured before redefinition ("the kernel
        #: obtains all the JavaScript functions and redefines them using a
        #: customized pointer", §VI).
        self.natives: Dict[str, Any] = {}

    def api_call(self, api: str, info: Dict[str, Any] = None) -> None:
        """Common prologue for every kernel-interposed API call.

        Charges the (small, real) kernel-crossing cost, ticks the kernel
        clock deterministically, and lets the policy veto.
        """
        sim = self.loop.sim
        sim.consume(250)
        self.clock.api_tick()
        tracer = sim.tracer
        if tracer.enabled:
            tracer.metrics.counter(f"kernel.api_calls.{api}").inc()
        try:
            self.policy.on_api_call(api, self, info or {})
        except SecurityError as veto:
            if tracer.enabled:
                frame = sim.current_frame
                ctx = frame.thread_name if frame is not None else sim.native_context
                tracer.instant(
                    sim.trace_pid,
                    self.scheduler.trace_row,
                    "policy.veto",
                    sim.now,
                    cat="policy",
                    args={"api": api, "rule": str(veto), "ctx": ctx},
                )
                tracer.metrics.counter("kernel.policy_vetoes").inc()
            raise

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelSpace {self.label} clock={self.clock.now}>"

"""Global scopes: the API surface scripts (and the kernel) see.

A *scope* is the simulated equivalent of ``window`` (main thread) or
``self`` (worker).  Simulated scripts are Python callables receiving a
scope and calling its attributes — ``scope.setTimeout(...)``,
``scope.performance.now()``, ``scope.Worker(...)`` — so anything that
rebinds those attributes interposes on the script exactly the way a
content-script extension interposes on a page.

Scopes are :class:`~repro.runtime.interpose.Interposable`: defenses can
redefine APIs, install setter traps (``onmessage``) and seal what they
installed.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .clock import DateClock, PerformanceClock
from .eventloop import EventLoop
from .interpose import Interposable
from .messaging import MessageEvent
from .origin import URL, Origin
from .timers import TimerRegistry


class ConsoleLog:
    """``console`` stand-in collecting log lines (tests read them)."""

    def __init__(self):
        self.lines: List[str] = []

    def log(self, *parts: Any) -> None:
        """``console.log(...)``."""
        self.lines.append(" ".join(str(p) for p in parts))


class ErrorEvent:
    """The event delivered to ``onerror`` handlers."""

    __slots__ = ("message", "filename", "lineno")

    def __init__(self, message: str, filename: str = "", lineno: int = 0):
        self.message = message
        self.filename = filename
        self.lineno = lineno

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ErrorEvent {self.message!r} at {self.filename}:{self.lineno}>"


class BaseScope(Interposable):
    """State and APIs common to window and worker scopes."""

    def __init__(self, loop: EventLoop, origin: Origin, base_url: URL):
        super().__init__()
        self.loop = loop
        self.sim = loop.sim
        self.origin = origin
        self.base_url = base_url
        self.console = ConsoleLog()
        #: JS engine speed factor (1.0 = JIT-enabled desktop browser).
        self.js_cost_scale = 1.0
        self._timer_registry = TimerRegistry(loop)
        # timer APIs are plain attributes so they can be redefined
        self.setTimeout = self._timer_registry.set_timeout
        self.clearTimeout = self._timer_registry.clear_timeout
        self.setInterval = self._timer_registry.set_interval
        self.clearInterval = self._timer_registry.clear_interval
        self.performance = PerformanceClock(self.sim)
        self.Date = DateClock(self.sim)

    @property
    def location(self) -> str:
        """``location.href``."""
        return self.base_url.serialize()

    def busy_work(self, duration_ms: float) -> None:
        """Pure-JS computation: spins the CPU for ``duration_ms``.

        This models an uninstrumentable JavaScript loop.  No defense can
        interpose on it (there is no API call to hook) — which is exactly
        why defenses must control the *clocks* that could measure it.

        ``js_cost_scale`` models JS engine speed: Tor Browser's security
        slider disables the JIT, making script work an order of magnitude
        slower — the reason Loophole saw such large event intervals there.
        """
        self.sim.consume(int(duration_ms * 1_000_000 * self.js_cost_scale))


class MainScope(BaseScope):
    """The ``window`` global scope.

    Page-dependent APIs (``document``, ``requestAnimationFrame``,
    ``Worker``, ``fetch``, storage, media) are attached by
    :class:`~repro.runtime.page.Page` after construction, because they
    need the page's renderer, network and browser services.
    """

    def __init__(self, loop: EventLoop, origin: Origin, base_url: URL):
        super().__init__(loop, origin, base_url)
        self.document = None
        self.requestAnimationFrame: Optional[Callable] = None
        self.cancelAnimationFrame: Optional[Callable] = None
        self.getComputedStyle: Optional[Callable] = None
        self.Worker: Optional[Callable] = None
        self.fetch: Optional[Callable] = None
        self.XMLHttpRequest: Optional[Callable] = None
        self.AbortController: Optional[Callable] = None
        self.SharedArrayBuffer: Optional[Callable] = None
        self.ArrayBuffer: Optional[Callable] = None
        self.indexedDB = None
        self.animate: Optional[Callable] = None
        self.createVideo: Optional[Callable] = None
        self.Image: Optional[Callable] = None


class WorkerScope(BaseScope):
    """The ``self`` global scope inside a WebWorker."""

    def __init__(self, loop: EventLoop, origin: Origin, base_url: URL):
        super().__init__(loop, origin, base_url)
        self.fetch: Optional[Callable] = None
        self.XMLHttpRequest: Optional[Callable] = None
        self.AbortController: Optional[Callable] = None
        self.SharedArrayBuffer: Optional[Callable] = None
        self.ArrayBuffer: Optional[Callable] = None
        self.importScripts: Optional[Callable] = None
        self.close: Optional[Callable] = None
        self.onmessage: Optional[Callable[[MessageEvent], None]] = None
        self.postMessage: Optional[Callable] = None
        # the native onmessage trap: registers with the parent channel
        self.define_setter_trap("onmessage", self._native_set_onmessage)

    def _native_set_onmessage(self, handler: Optional[Callable]) -> None:
        self.set_raw("onmessage", handler)

    def _dispatch_message(self, event: MessageEvent) -> None:
        handler = getattr(self, "onmessage", None)
        if handler is not None:
            handler(event)

"""Chrome Zero / JavaScript Zero (Schwarz, Lipp & Gruss, NDSS 2018).

An extension that redefines sensitive APIs:

* explicit clocks become coarse **and noisy** (fuzzy-time heritage) —
  enough to stop clock-edge, not enough to stop attacks that count
  events or that average repeated runs;
* WebWorkers are replaced by a **nonparallel polyfill** running on the
  main thread — which incidentally defeats the worker-*lifecycle* CVEs
  (there is no native worker teardown to race) at the price the paper
  calls out: "reduced functionalities as Chrome Zero only adopts a
  polyfill implementation of a web worker";
* every wrapped call pays a noticeable interposition cost, which is why
  Chrome Zero sits visibly right of Chrome in the Figure 3 CDF while
  JSKernel hugs it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from ..runtime.clock import FuzzyClockPolicy
from ..runtime.fetchapi import AbortController, FetchManager
from ..runtime.messaging import MessageEvent
from ..runtime.origin import parse_url, same_origin
from ..runtime.scopes import ErrorEvent, WorkerScope
from ..runtime.simtime import us
from ..runtime.task import TaskSource
from ..runtime.xhr import XMLHttpRequest
from .backend import DefenseBackend

#: Sanitised cross-origin error text.
SANITIZED_ERROR = "Script error."


class ChromeZero(DefenseBackend):
    """Noisy clocks + polyfill workers + per-call wrap cost."""

    name = "chromezero"
    base_browser = "chrome"

    CLOCK_RESOLUTION_NS = us(100)
    #: Interposition cost charged on every wrapped call.
    WRAP_COST_NS = 15_000

    def clock_policies(self, browser):
        """JavaScript Zero inherits Fuzzyfox's fuzzy-time idea for its
        redefined clocks (coarse AND randomly-updating)."""
        rng = browser.rng.stream("chromezero")
        return partial(FuzzyClockPolicy, self.CLOCK_RESOLUTION_NS, rng), None

    def on_page(self, page) -> None:
        """Replace Worker with the nonparallel main-loop polyfill, then
        wrap the scope's APIs (per-call cost + deoptimised JS)."""
        browser = page.browser
        scope = page.scope
        scope.Worker = lambda src: PolyfillWorkerHandle(browser, page, src)
        # JS Zero's Proxy-based interposition deoptimises hot code: the
        # paper's own evaluation shows Chrome Zero visibly slower than
        # Chrome on real pages
        scope.js_cost_scale = max(scope.js_cost_scale, 1.4)
        for attr in ("setTimeout", "setInterval", "requestAnimationFrame",
                     "fetch", "getComputedStyle"):
            self._wrap_with_cost(browser, scope, attr)

    def _wrap_with_cost(self, browser, scope, attr: str) -> None:
        native = getattr(scope, attr)
        if native is None:
            return
        cost = self.WRAP_COST_NS

        def wrapped(*args, **kwargs):
            browser.sim.consume(cost)
            return native(*args, **kwargs)

        setattr(scope, attr, wrapped)


class PolyfillWorkerHandle:
    """Chrome Zero's nonparallel Worker replacement.

    The "worker" is a scope whose tasks run on the *main* event loop.
    There is no native worker object, no native teardown, and no true
    parallelism.
    """

    def __init__(self, browser, page, src):
        self.browser = browser
        self.page = page
        self.onmessage: Optional[Callable[[MessageEvent], None]] = None
        self.onerror: Optional[Callable[[ErrorEvent], None]] = None
        self.terminated = False
        self._scope_onmessage: Optional[Callable[[MessageEvent], None]] = None
        self._pending_until_eval: List[Any] = []
        self._evaluated = False

        self._boot_error: Optional[str] = None
        if callable(src):
            self.script_url = parse_url("/polyfill-worker.js", base=page.base_url)
            body = src
        else:
            self.script_url = parse_url(str(src), base=page.base_url)
            resource = browser.network.lookup(self.script_url)
            body = resource.body if resource is not None else None
            if resource is not None and resource.redirect_to is not None:
                if not same_origin(resource.redirect_to.origin, self.script_url.origin):
                    body = None
                    if browser.profile.has_bug("cve_2010_4576"):
                        self._boot_error = (
                            f"redirect to {resource.redirect_to.serialize()}"
                        )
                    else:
                        self._boot_error = SANITIZED_ERROR

        self.scope = self._build_scope()
        page.loop.post(
            lambda: self._evaluate(body),
            source=TaskSource.WORKER,
            label="polyfill-worker-boot",
        )

    # ------------------------------------------------------------------
    def _build_scope(self):
        browser = self.browser
        page = self.page
        scope = WorkerScope(page.loop, self.script_url.origin, self.script_url)
        handle = self

        fetch_manager = FetchManager(
            page.loop, browser.network, browser.heap, self.script_url, scope.origin
        )
        scope.fetch = fetch_manager.fetch
        scope.AbortController = AbortController
        # main-thread XHR path: the SOP check is NOT skippable here, which
        # is exactly why the polyfill defeats CVE-2013-1714
        scope.XMLHttpRequest = lambda: XMLHttpRequest(
            page.loop, browser.network, self.script_url, scope.origin, enforce_sop=True
        )
        scope.importScripts = self._import_scripts
        scope.close = self.terminate
        scope.SharedArrayBuffer = browser.make_shared_buffer
        scope.set_raw("postMessage", self._post_to_parent)
        scope.define_setter_trap(
            "onmessage", lambda fn: setattr(handle, "_scope_onmessage", fn)
        )
        return scope

    def _evaluate(self, body) -> None:
        if self.terminated:
            return
        try:
            if self._boot_error is not None:
                raise SimulationError(self._boot_error)
            if body is None:
                raise SimulationError(f"cannot load {self.script_url.serialize()}")
            body(self.scope)
        except Exception as exc:
            self._fire_error(str(exc))
        self._evaluated = True
        for event in self._pending_until_eval:
            self._deliver_to_scope(event)
        self._pending_until_eval = []

    def _import_scripts(self, url: str) -> None:
        browser = self.browser
        target = parse_url(url, base=self.script_url)
        cross = not same_origin(target.origin, self.scope.origin)
        resource = browser.network.lookup(target)
        browser.sim.consume(browser.network.base_latency_ns)
        if resource is None or isinstance(resource.body, Exception):
            if cross and not browser.profile.has_bug("cve_2015_7215"):
                raise SimulationError(SANITIZED_ERROR)
            raise SimulationError(f"importScripts failed for {target.serialize()}")
        if callable(resource.body):
            resource.body(self.scope)

    # ------------------------------------------------------------------
    # messaging (all on the main loop)
    # ------------------------------------------------------------------
    def postMessage(self, data: Any, transfer: Optional[list] = None) -> None:
        """Main -> polyfill worker (just another main-loop task)."""
        if self.terminated:
            return
        if transfer:
            for item in transfer:
                detach = getattr(item, "detach", None)
                if detach is not None:
                    detach()
        event = MessageEvent(data, origin=self.page.origin.serialize())
        if not self._evaluated:
            self._pending_until_eval.append(event)
            return
        self.page.loop.post(
            self._deliver_to_scope, event,
            source=TaskSource.MESSAGE, label="polyfill-msg-in",
        )

    def _deliver_to_scope(self, event: MessageEvent) -> None:
        if self.terminated:
            return
        if self._scope_onmessage is not None:
            self._scope_onmessage(event)

    def _post_to_parent(self, data: Any, transfer: Optional[list] = None) -> None:
        if self.terminated:
            return
        views = []
        for item in transfer or []:
            make_view = getattr(item, "transferred_view", None)
            if make_view is not None:
                views.append(make_view())
            detach = getattr(item, "detach", None)
            if detach is not None:
                detach()
        event = MessageEvent(
            data, origin=self.scope.origin.serialize(), transferred=views
        )

        def deliver() -> None:
            if not self.terminated and self.onmessage is not None:
                self.onmessage(event)

        self.page.loop.post(deliver, source=TaskSource.MESSAGE, label="polyfill-msg-out")

    def _fire_error(self, message: str) -> None:
        cross = not same_origin(self.script_url.origin, self.page.origin)
        if cross and not self.browser.profile.has_bug("cve_2014_1487"):
            message = SANITIZED_ERROR

        def deliver() -> None:
            if self.onerror is not None:
                self.onerror(ErrorEvent(message, filename=self.script_url.serialize()))

        self.page.loop.post(deliver, source=TaskSource.WORKER, label="polyfill-onerror")

    def terminate(self) -> None:
        """No native teardown exists; just stop delivering."""
        self.terminated = True

    @property
    def state(self) -> str:
        """Lifecycle state mirroring the native handle's API."""
        return "terminated" if self.terminated else "running"

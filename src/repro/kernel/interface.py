"""The kernel interface: API redefinition, traps and stubs (paper §III-B).

Each ``install_*`` method captures the native API reference into
``kspace.natives`` (the kernel's "customized pointer") and rebinds the
scope attribute to a kernel wrapper implementing two-stage scheduling:

    user call → **registration** (pending kernel event, predicted time,
    native API invoked with a kernel confirmation callback)
    → browser fires → **confirmation** (args/this/callback bound)
    → **dispatch** (kernel dispatcher invokes the user callback on the
    deterministic predicted-time axis).

Everything the page can observe time through — timers, rAF, fetch,
element onload/onerror, window messaging, CSS animation sampling, video
clocks — is wrapped here.  Shared memory is interposed differently:
SharedArrayBuffer counters and shared objects are not wrapped per
object; the scope's agent gets a :class:`KernelSharedMemPolicy`, and the
shared heap's access gate consults the policy of the agent performing
each access.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..runtime.dom import Element
from ..runtime.promises import SimPromise
from ..runtime.sharedmem import AccessPolicy as SharedMemAccessPolicy
from ..runtime.simtime import ms, to_ms
from . import comm
from .kclock import KernelDate, KernelPerformance
from .kobjects import PENDING
from .space import KernelSpace


class KernelInterface:
    """Installs kernel wrappers onto one scope."""

    def __init__(self, kspace: KernelSpace):
        self.kspace = kspace
        self._timer_ids = 0
        self._timers: Dict[int, Dict[str, Any]] = {}
        self._raf_ids = 0
        self._rafs: Dict[int, Any] = {}
        self._element_events: Dict[Element, Any] = {}
        self._animations: Dict[Tuple[Element, str], Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def install_clocks(self, scope) -> None:
        """Replace ``performance`` and ``Date`` with kernel clocks."""
        kspace = self.kspace
        kspace.natives["performance"] = scope.performance
        kspace.natives["Date"] = scope.Date
        scope.set_raw("performance", KernelPerformance(kspace.clock, kspace.loop.sim))
        scope.set_raw("Date", KernelDate(kspace.clock, kspace.loop.sim))
        scope.seal_attribute("performance")
        scope.seal_attribute("Date")

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def install_timers(self, scope) -> None:
        """Wrap setTimeout/setInterval/clearTimeout/clearInterval."""
        kspace = self.kspace
        natives = kspace.natives
        natives["setTimeout"] = scope.setTimeout
        natives["clearTimeout"] = scope.clearTimeout
        natives["setInterval"] = scope.setInterval
        natives["clearInterval"] = scope.clearInterval

        def k_set_timeout(callback: Callable, delay_ms: float = 0, *args) -> int:
            kspace.api_call("setTimeout", {"delay_ms": delay_ms})
            event = kspace.scheduler.register(
                "timeout", {"default": callback}, hint=ms(max(delay_ms, 0)),
                label="setTimeout",
            )
            native_id = natives["setTimeout"](
                lambda: kspace.scheduler.confirm(event, args=args), delay_ms
            )
            self._timer_ids += 1
            kid = self._timer_ids
            self._timers[kid] = {"event": event, "native_id": native_id, "interval": False}
            return kid

        def k_set_interval(callback: Callable, delay_ms: float = 0, *args) -> int:
            kspace.api_call("setInterval", {"delay_ms": delay_ms})
            self._timer_ids += 1
            kid = self._timer_ids
            state = {"event": None, "native_id": None, "interval": True, "cleared": False}
            self._timers[kid] = state

            def register_next() -> None:
                if state["cleared"]:
                    return
                state["event"] = kspace.scheduler.register(
                    "interval",
                    {"default": run_once},
                    hint=ms(max(delay_ms, 0)),
                    label="setInterval",
                )

            def run_once(*call_args) -> None:
                callback(*call_args)
                register_next()

            def on_native_fire() -> None:
                event = state["event"]
                if event is not None and event.status == PENDING:
                    kspace.scheduler.confirm(event, args=args)
                # a fire racing ahead of the paced dispatcher is coalesced,
                # like browsers coalesce interval callbacks

            register_next()
            state["native_id"] = natives["setInterval"](on_native_fire, delay_ms)
            return kid

        def k_clear_timeout(kid: int) -> None:
            kspace.api_call("clearTimeout", {})
            state = self._timers.pop(kid, None)
            if state is None:
                return
            state["cleared"] = True
            if state.get("event") is not None:
                kspace.scheduler.cancel(state["event"])
            if state.get("native_id") is not None:
                if state["interval"]:
                    natives["clearInterval"](state["native_id"])
                else:
                    natives["clearTimeout"](state["native_id"])

        scope.setTimeout = k_set_timeout
        scope.setInterval = k_set_interval
        scope.clearTimeout = k_clear_timeout
        scope.clearInterval = k_clear_timeout

    # ------------------------------------------------------------------
    # requestAnimationFrame
    # ------------------------------------------------------------------
    def install_raf(self, scope) -> None:
        """Wrap rAF: user callbacks see kernel predicted timestamps."""
        kspace = self.kspace
        natives = kspace.natives
        natives["requestAnimationFrame"] = scope.requestAnimationFrame
        natives["cancelAnimationFrame"] = scope.cancelAnimationFrame

        def k_raf(callback: Callable[[float], None]) -> int:
            kspace.api_call("requestAnimationFrame", {})
            event = kspace.scheduler.register("raf", label="rAF")
            timestamp_ms = to_ms(event.predicted_time)
            event.callbacks = {"default": callback}

            def on_native_frame(_native_timestamp: float) -> None:
                if event.status == PENDING:
                    kspace.scheduler.confirm(event, args=(timestamp_ms,))

            native_id = natives["requestAnimationFrame"](on_native_frame)
            self._raf_ids += 1
            kid = self._raf_ids
            self._rafs[kid] = {"event": event, "native_id": native_id}
            return kid

        def k_cancel_raf(kid: int) -> None:
            kspace.api_call("cancelAnimationFrame", {})
            state = self._rafs.pop(kid, None)
            if state is None:
                return
            kspace.scheduler.cancel(state["event"])
            natives["cancelAnimationFrame"](state["native_id"])

        scope.requestAnimationFrame = k_raf
        scope.cancelAnimationFrame = k_cancel_raf

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------
    def install_fetch(self, scope, on_register=None, on_settle=None) -> None:
        """Wrap fetch: completion is delivered on the kernel time axis.

        ``on_register``/``on_settle`` are thread-manager hooks used by the
        CVE-2018-5092 policy handshake (pendingChildFetch/confirmFetch).
        """
        kspace = self.kspace
        natives = kspace.natives
        natives["fetch"] = scope.fetch

        def k_fetch(url: str, options: Optional[dict] = None) -> SimPromise:
            kspace.api_call("fetch", {"url": url})
            user_promise = SimPromise(kspace.loop, label=f"kfetch:{url}")
            event = kspace.scheduler.register(
                "network",
                {
                    "onload": user_promise.resolve,
                    "onerror": user_promise.reject,
                },
                label=f"fetch:{url}",
            )
            if on_register is not None:
                on_register(event)

            def settled(which: str, value: Any) -> None:
                if event.status == PENDING:
                    kspace.scheduler.confirm(event, args=(value,), which=which)
                if on_settle is not None:
                    on_settle(event)

            native_promise = natives["fetch"](url, options)
            native_promise.then(
                lambda response: settled("onload", response),
                lambda error: settled("onerror", error),
            )
            return user_promise

        scope.fetch = k_fetch

    # ------------------------------------------------------------------
    # DOM subresource events (script parsing / image decoding channel)
    # ------------------------------------------------------------------
    def install_dom_loading(self, page) -> None:
        """Two-stage scheduling for element onload/onerror."""
        kspace = self.kspace

        def on_load_start(element) -> None:
            event = kspace.scheduler.register(
                "dom",
                {
                    "onload": lambda: element.onload() if element.onload else None,
                    "onerror": lambda: element.onerror() if element.onerror else None,
                },
                label=f"load:{element.tag}",
            )
            self._element_events[element] = event

        def route(element, name: str, _handler) -> None:
            event = self._element_events.pop(element, None)
            if event is None:
                # load started before the kernel was installed; fall back
                # to a register+confirm at delivery
                kspace.scheduler.register_confirmed(
                    "dom", _handler or (lambda: None), label=f"late:{name}"
                )
                return
            kspace.scheduler.confirm(event, which=name)

        page.load_start_hook = on_load_start
        page.element_event_router = route

    # ------------------------------------------------------------------
    # window self-messaging (loopscan channel)
    # ------------------------------------------------------------------
    def install_window_messaging(self, scope) -> None:
        """Wrap window.postMessage/onmessage through the kernel queue."""
        kspace = self.kspace
        natives = kspace.natives
        natives["postMessage"] = scope.postMessage
        # no kernel commands travel on the window self-channel
        comm.KernelInbox(kspace.scheduler, "window-msg", "msg:window").install(scope)

        def k_post_message(data: Any) -> None:
            kspace.api_call("postMessage", {})
            natives["postMessage"](comm.wrap_user(data))

        scope.postMessage = k_post_message

    # ------------------------------------------------------------------
    # CSS animation sampling (getComputedStyle clock)
    # ------------------------------------------------------------------
    def install_animations(self, scope) -> None:
        """Wrap animate/getComputedStyle: progress follows the kernel clock."""
        kspace = self.kspace
        natives = kspace.natives
        natives["animate"] = scope.animate
        natives["getComputedStyle"] = scope.getComputedStyle

        def k_animate(element, prop="left", from_value=0.0, to_value=1000.0, duration_ms=10_000.0):
            kspace.api_call("animate", {})
            native_animation = natives["animate"](element, prop, from_value, to_value, duration_ms)
            self._animations[(element, prop)] = {
                "start_kernel_ns": kspace.clock.now,
                "from": from_value,
                "to": to_value,
                "duration_ms": duration_ms,
                "native": native_animation,
            }
            return native_animation

        def k_get_computed_style(element, prop: str) -> float:
            kspace.api_call("getComputedStyle", {})
            # the kernel consults its animation table and rebuilds the
            # style value from kernel time: the per-call cost behind the
            # paper's worst Dromaeo case (DOM attributes, ~21%)
            kspace.loop.sim.consume(250)
            record = self._animations.get((element, prop))
            if record is None:
                return natives["getComputedStyle"](element, prop)
            elapsed_ms = to_ms(kspace.clock.now - record["start_kernel_ns"])
            if record["duration_ms"] <= 0:
                fraction = 1.0
            else:
                fraction = max(0.0, min(1.0, elapsed_ms / record["duration_ms"]))
            return record["from"] + (record["to"] - record["from"]) * fraction

        scope.animate = k_animate
        scope.getComputedStyle = k_get_computed_style

    # ------------------------------------------------------------------
    # media clocks (video.currentTime / WebVTT cues)
    # ------------------------------------------------------------------
    def install_media(self, scope) -> None:
        """Wrap createVideo with a kernel-clocked video object."""
        kspace = self.kspace
        natives = kspace.natives
        natives["createVideo"] = scope.createVideo
        interface = self

        def k_create_video(duration_ms: float = 60_000.0):
            kspace.api_call("createVideo", {})
            return KernelVideo(interface, duration_ms)

        scope.createVideo = k_create_video

    # ------------------------------------------------------------------
    # shared memory: SharedArrayBuffer counters and the shared-object runtime
    # ------------------------------------------------------------------
    def install_shared_memory(self, scope) -> None:
        """Interpose shared memory for this scope's agent.

        ``new SharedArrayBuffer`` is a kernel crossing, and every access
        this agent makes to shared memory (SAB counter loads/stores,
        dict/array ops, atomics, the counter-thread clock's loads) is one
        too, paced onto the message-slot grid by the agent's
        :class:`KernelSharedMemPolicy`.  A read is interposed by the
        policy of the agent performing it, whichever agent created the
        object.  Because the policy guards collection, the shared GC is
        forced onto the safe stop-the-world path regardless of the
        profile's bug flags.
        """
        kspace = self.kspace
        natives = kspace.natives
        natives["SharedArrayBuffer"] = scope.SharedArrayBuffer

        def k_shared_buffer(size: int = 8):
            kspace.api_call("SharedArrayBuffer", {})
            return natives["SharedArrayBuffer"](size)

        scope.SharedArrayBuffer = k_shared_buffer
        scope.sharedmem.set_policy(KernelSharedMemPolicy(kspace))

    # ------------------------------------------------------------------
    # storage gating (CVE-2017-7843 policy)
    # ------------------------------------------------------------------
    def install_storage(self, scope, page) -> None:
        """Wrap indexedDB behind the policy's storage gate."""
        kspace = self.kspace
        kspace.natives["indexedDB"] = scope.indexedDB
        scope.indexedDB = KernelIndexedDB(kspace, kspace.natives["indexedDB"], page)


class KernelVideo:
    """User-facing video stub whose clock is the kernel clock."""

    def __init__(self, interface: KernelInterface, duration_ms: float):
        self._kspace = interface.kspace
        self.duration_ms = duration_ms
        self.playing = False
        self._start_kernel_ns: Optional[int] = None
        self._paused_at_ms = 0.0
        self.cues = []

    def play(self) -> None:
        """Start playback on the kernel time axis."""
        self._kspace.api_call("video.play", {})
        if self.playing:
            return
        self.playing = True
        self._start_kernel_ns = self._kspace.clock.now - int(self._paused_at_ms * 1e6)

    def pause(self) -> None:
        """Freeze currentTime."""
        self._kspace.api_call("video.pause", {})
        if not self.playing:
            return
        self._paused_at_ms = self.current_time * 1000.0
        self.playing = False

    @property
    def current_time(self) -> float:
        """``video.currentTime`` in kernel seconds."""
        self._kspace.api_call("video.currentTime", {})
        if not self.playing or self._start_kernel_ns is None:
            return self._paused_at_ms / 1000.0
        elapsed_ms = to_ms(self._kspace.clock.now - self._start_kernel_ns)
        return min(elapsed_ms, self.duration_ms) / 1000.0

    def add_cue(self, cue) -> None:
        """Cue enter events become kernel timeout events."""
        self._kspace.api_call("video.addCue", {})
        self.cues.append(cue)
        if cue.on_enter is None:
            return
        self._kspace.scheduler.register_confirmed(
            "media",
            lambda: cue.on_enter(cue) if cue.on_enter else None,
            hint=ms(cue.start_ms),
            label=f"cue@{cue.start_ms}",
        )


class KernelSharedMemPolicy(SharedMemAccessPolicy):
    """Shared-memory access policy: every access crosses into the kernel.

    The paper routes SharedArrayBuffer accesses through the kernel event
    queue; each access is a kernel API call (charged, counted, vetoable,
    named ``sab.<access>`` or ``shm.<access>`` after the object's
    family) whose completion is paced to the kernel's message-slot grid.
    Pacing the *access time* is what degrades the SAB counter timer and
    the counter-thread clock — a counter's value is a function of when
    the load lands, so grid-aligned loads can only observe
    grid-resolution time.
    """

    name = "jskernel"
    guards_gc = True

    def __init__(self, kspace: KernelSpace):
        self._kspace = kspace

    def before_access(self, sim, cell, op: str, access: str) -> None:
        self._kspace.api_call(f"{cell.api}.{access}", {"obj": cell.obj_id})
        grid = self._kspace.grid.grid_for("message")
        boundary = ((sim.now // grid) + 1) * grid
        sim.consume(boundary - sim.now)

    def before_lock(self, sim, lock, thread: str, held) -> None:
        """Veto out-of-order acquisition: deadlock prevention.

        Locks must be taken in allocation (``seq``) order; asking for a
        lock while holding a later-ordered one is the classic ABBA shape
        and the kernel refuses it outright, so wait-for cycles can never
        form under this policy.
        """
        from ..errors import SecurityError

        self._kspace.api_call("shm.lock", {"lock": lock.trace_label})
        worst = max((h.seq for h in held), default=0)
        if worst > lock.seq:
            raise SecurityError(
                f"kernel lock-order policy: {thread} requested {lock.trace_label} "
                f"while holding a later-ordered lock (seq {worst})"
            )


class KernelIndexedDB:
    """indexedDB stub consulting the policy's storage gate."""

    def __init__(self, kspace: KernelSpace, native, page):
        self._kspace = kspace
        self._native = native
        self._page = page

    def _check(self) -> None:
        from ..errors import SecurityError

        if not self._kspace.policy.allow_storage_access(self._page):
            raise SecurityError(
                "indexedDB access denied by kernel policy (private browsing)"
            )

    def put(self, key: str, value) -> None:
        """Policy-gated ``objectStore.put``."""
        self._kspace.api_call(
            "indexedDB.put", {"private_mode": getattr(self._page, "private_mode", False)}
        )
        self._check()
        self._native.put(key, value)

    def get(self, key: str):
        """Policy-gated ``objectStore.get``."""
        self._kspace.api_call(
            "indexedDB.get", {"private_mode": getattr(self._page, "private_mode", False)}
        )
        self._check()
        return self._native.get(key)

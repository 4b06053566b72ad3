"""Thread management: kernel threads wrapping user workers (paper §III-E).

When user space constructs a Worker, the kernel instead creates a **kernel
thread**: a native WebWorker running kernel bootstrap code, which installs
a per-thread :class:`~repro.kernel.space.KernelSpace` (its own queue and
clock), wraps the worker-global APIs, and then imports the *user thread* —
whose source arrives over kernel-space communication, exactly as in the
paper's Listing 5.  User space only ever holds a :class:`KernelWorkerStub`.

The thread object carries the paper's four fields — ``status``, ``id``,
``src`` and ``kernel_worker`` — and the termination path consults the
installed policies: the worker-lifecycle policy closes threads *at the
user level only*, keeping the kernel worker alive, which is what defuses
the worker-lifecycle CVEs (2018-5092, 2014-1488, 2014-3194, 2013-5602,
2013-6646).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional

from ..runtime.interpose import Interposable
from ..runtime.messaging import MessageEvent
from ..runtime.scopes import ErrorEvent
from ..runtime.sharedbuf import SimArrayBuffer
from . import comm
from .interface import KernelInterface
from .space import KernelSpace

#: The native ``Worker`` lifecycle state for each kernel thread status.
NATIVE_STATE = {"started": "spawning", "ready": "running", "closed": "terminated"}


class KernelThread:
    """The kernel's thread object (paper §III-E1)."""

    def __init__(self, manager: "ThreadManager", src):
        self.manager = manager
        # per-run numbering keeps kthread labels (and traces)
        # independent of what ran earlier in the process
        self.id = manager.kspace.loop.sim.next_object_seq("kthread")
        self.src = src
        #: "started" -> "ready" (user thread loaded) -> "closed"
        self.status = "started"
        #: The native worker handle backing this kernel thread.
        self.kernel_worker = None
        #: Worker-side kernel space (set by the bootstrap).
        self.worker_kspace: Optional[KernelSpace] = None
        #: Kernel fetch events the worker reported pending (Listing 4).
        self.pending_fetches: set = set()
        #: Buffers the worker transferred to the parent (lifecycle policy
        #: keeps the kernel worker alive while these are live).
        self.transferred_out: List[SimArrayBuffer] = []
        self.stub: Optional["KernelWorkerStub"] = None
        #: True when a policy deferred the native termination.
        self.user_level_closed_only = False

    @property
    def alive(self) -> bool:
        """True until user-level close."""
        return self.status != "closed"


class KernelWorkerStub(Interposable):
    """The user-space Worker stub (paper Listing 5's Proxy)."""

    def __init__(self, kthread: KernelThread, inbox: comm.KernelInbox):
        super().__init__()
        self.onmessage: Optional[Callable[[MessageEvent], None]] = None
        self.onerror: Optional[Callable[[ErrorEvent], None]] = None
        self._kthread = kthread
        self._inbox = inbox
        # kernel trap: assignments are observed by the kernel, never touch
        # the native wrapper (CVE-2013-5602's null deref cannot be reached)
        self.define_setter_trap("onmessage", self._trap_onmessage)
        self.seal_attribute("onmessage")

    def _trap_onmessage(self, handler) -> None:
        self.set_raw("onmessage", handler)
        self._inbox.handler = handler

    def postMessage(self, data: Any, transfer: Optional[list] = None) -> None:
        """User postMessage to the worker, via the kernel."""
        self._kthread.manager.post_to_worker(self._kthread, data, transfer)

    def terminate(self) -> None:
        """User terminate, mediated by policy."""
        self._kthread.manager.terminate(self._kthread)

    @property
    def state(self) -> str:
        """The native handle's lifecycle state
        (``spawning``/``running``/``terminated``) for this kernel thread."""
        return NATIVE_STATE[self._kthread.status]


class ThreadManager:
    """Main-thread side of kernel thread management for one page."""

    def __init__(self, kernel_instance, page):
        self.kernel = kernel_instance
        self.page = page
        self.kspace = kernel_instance.kspace
        self.threads: List[KernelThread] = []

    # ------------------------------------------------------------------
    # construction (user calls new Worker(...))
    # ------------------------------------------------------------------
    def construct_worker(self, src) -> KernelWorkerStub:
        """Create a kernel thread and return the user stub."""
        self.kspace.api_call("Worker", {"src": str(src)})
        kthread = KernelThread(self, src)
        inbox = comm.KernelInbox(
            self.kspace.scheduler,
            "worker-msg",
            f"msg:kthread-{kthread.id}",
            on_command=partial(self._main_sys_command, kthread),
            thread=kthread,
        )
        stub = KernelWorkerStub(kthread, inbox)
        kthread.stub = stub
        self.threads.append(kthread)

        bootstrap = self._make_bootstrap(kthread)
        native_worker_ctor = self.kspace.natives["Worker"]
        handle = native_worker_ctor(bootstrap)
        kthread.kernel_worker = handle
        handle.onmessage = inbox.receive
        handle.onerror = lambda error: self._receive_worker_error(kthread, error)

        # pass the user thread source over kernel-space communication
        handle.postMessage(comm.wrap_kernel("load-user-thread", None))
        self.kernel.policy.on_worker_create(kthread)
        sim = self.kspace.loop.sim
        tracer = sim.tracer
        if tracer.enabled:
            tracer.instant(
                sim.trace_pid,
                self.kspace.scheduler.trace_row,
                "kthread.spawn",
                sim.now,
                cat="kernel",
                args={"kthread": f"kthread-{kthread.id}", "ctx": sim.trace_context},
            )
            tracer.metrics.counter("kernel.threads_spawned").inc()
        return stub

    def _make_bootstrap(self, kthread: KernelThread) -> Callable:
        """The kernel code that runs first inside the new worker."""
        kernel = self.kernel
        manager = self

        def kernel_worker_bootstrap(ws) -> None:
            kspace_w = KernelSpace(
                ws.loop, kernel.policy, kernel.grid, label=f"kthread-{kthread.id}"
            )
            kthread.worker_kspace = kspace_w
            interface = KernelInterface(kspace_w)
            interface.install_clocks(ws)
            interface.install_timers(ws)
            interface.install_shared_memory(ws)
            manager._install_worker_messaging(kthread, kspace_w, ws)
            manager._install_worker_fetch(kthread, kspace_w, interface, ws)
            manager._install_worker_xhr(kthread, kspace_w, ws)
            manager._install_worker_import_scripts(kthread, kspace_w, ws)

            def k_close() -> None:
                kspace_w.api_call("worker.close", {})
                manager.terminate(kthread)

            ws.close = k_close

        return kernel_worker_bootstrap

    # ------------------------------------------------------------------
    # worker-side wiring (runs in the kernel thread)
    # ------------------------------------------------------------------
    def _install_worker_messaging(self, kthread: KernelThread, kspace_w: KernelSpace, ws) -> None:
        natives = kspace_w.natives
        natives["postMessage"] = ws.postMessage

        def on_command(command: Optional[str], _data) -> None:
            # the other command, Listing 4's "confirmFetch", only
            # acknowledges a pendingChildFetch: nothing to do here
            if command == "load-user-thread":
                self._load_user_thread(kthread, ws)

        comm.KernelInbox(
            kspace_w.scheduler, "worker-inbox", "msg:parent",
            on_command=on_command, thread=kthread,
        ).install(ws)

        def k_post_message(data: Any, transfer: Optional[list] = None) -> None:
            kspace_w.api_call("worker.postMessage", {})
            if not kthread.alive:
                return
            self.kernel.policy.on_worker_message(kthread, "to_parent", data)
            for item in transfer or []:
                if isinstance(item, SimArrayBuffer):
                    kthread.transferred_out.append(item)
            natives["postMessage"](comm.wrap_user(data), transfer)

        ws.postMessage = k_post_message

    def _load_user_thread(self, kthread: KernelThread, ws) -> None:
        if not kthread.alive:
            # user space terminated the thread before its source arrived:
            # never run the user code, never resurrect the status
            return
        src = kthread.src
        try:
            if callable(src):
                src(ws)
            else:
                ws.importScripts(str(src))
        except Exception as exc:
            self._deliver_error(kthread, str(exc), cross_origin=True)
            return
        if kthread.alive:  # the user thread may have called close()
            kthread.status = "ready"

    def _install_worker_fetch(self, kthread, kspace_w, interface: KernelInterface, ws) -> None:
        natives = kspace_w.natives

        def on_register(event) -> None:
            kthread.pending_fetches.add(event.id)
            natives["postMessage"](comm.wrap_kernel("pendingChildFetch", event.id))

        def on_settle(event) -> None:
            kthread.pending_fetches.discard(event.id)
            natives["postMessage"](comm.wrap_kernel("childFetchSettled", event.id))

        interface.install_fetch(ws, on_register=on_register, on_settle=on_settle)

    def _install_worker_xhr(self, kthread, kspace_w, ws) -> None:
        natives = kspace_w.natives
        natives["XMLHttpRequest"] = ws.XMLHttpRequest
        kernel = self.kernel

        class KernelXHR:
            """XHR stub: the kernel checks origins before delegating."""

            def __init__(self):
                kspace_w.api_call("worker.xhr", {})
                self._native = natives["XMLHttpRequest"]()
                self._url: Optional[str] = None

            def open(self, method: str, url: str) -> None:
                self._url = url
                self._native.open(method, url)

            def send(self) -> None:
                kernel.policy.on_api_call(
                    "worker.xhr.send",
                    kspace_w,
                    {"url": self._url, "origin": ws.origin, "base_url": ws.base_url},
                )
                self._native.send()

            def __getattr__(self, name):
                return getattr(self._native, name)

            def __setattr__(self, name, value):
                if name.startswith("_"):
                    object.__setattr__(self, name, value)
                else:
                    setattr(self._native, name, value)

        ws.XMLHttpRequest = KernelXHR

    def _install_worker_import_scripts(self, kthread, kspace_w, ws) -> None:
        natives = kspace_w.natives
        natives["importScripts"] = ws.importScripts
        kernel = self.kernel

        def k_import_scripts(url: str) -> None:
            kspace_w.api_call("worker.importScripts", {"url": url})
            try:
                natives["importScripts"](url)
            except Exception as exc:
                # the paper's policy sanitises importScripts errors as a
                # class: even a same-origin load may fail because of a
                # cross-origin redirect, so all details are stripped
                message = kernel.policy.on_error_event(kthread, str(exc), True)
                raise type(exc)(message) from None

        ws.importScripts = k_import_scripts

    # ------------------------------------------------------------------
    # main-side traffic
    # ------------------------------------------------------------------
    def post_to_worker(self, kthread: KernelThread, data: Any, transfer: Optional[list]) -> None:
        """Stub postMessage: kernel-mediated main -> worker."""
        self.kspace.api_call("worker.postMessage", {})
        if not kthread.alive:
            # kernel drops messages to closed threads without touching the
            # native wrapper (CVE-2014-3194 cannot be reached)
            return
        self.kernel.policy.on_worker_message(kthread, "to_worker", data)
        kthread.kernel_worker.postMessage(comm.wrap_user(data), transfer)
        self.kernel.policy.on_worker_message(kthread, "to_worker_transfer", transfer)

    def _main_sys_command(self, kthread: KernelThread, command: str, payload) -> None:
        if command == "pendingChildFetch":
            kthread.pending_fetches.add(payload)
            kthread.kernel_worker.postMessage(comm.wrap_kernel("confirmFetch", payload))
        elif command == "childFetchSettled":
            kthread.pending_fetches.discard(payload)
            self._maybe_finish_deferred_termination(kthread)

    def _receive_worker_error(self, kthread: KernelThread, error: ErrorEvent) -> None:
        self._deliver_error(kthread, error.message, cross_origin=True)

    def _deliver_error(self, kthread: KernelThread, message: str, cross_origin: bool) -> None:
        filtered = self.kernel.policy.on_error_event(kthread, message, cross_origin)
        event = ErrorEvent(filtered)

        def deliver() -> None:
            handler = getattr(kthread.stub, "onerror", None)
            if handler is not None:
                handler(event)

        self.kspace.scheduler.register_confirmed("dom", deliver, label="worker-error")

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def terminate(self, kthread: KernelThread) -> None:
        """User-requested termination, mediated by policy."""
        if not kthread.alive:
            return
        kthread.status = "closed"
        claimed = self.kernel.policy.on_worker_terminate_request(kthread)
        sim = self.kspace.loop.sim
        tracer = sim.tracer
        if tracer.enabled:
            tracer.instant(
                sim.trace_pid,
                self.kspace.scheduler.trace_row,
                "kthread.terminate",
                sim.now,
                cat="kernel",
                args={
                    "kthread": f"kthread-{kthread.id}",
                    "user_level_only": bool(claimed),
                    "ctx": sim.trace_context,
                },
            )
            tracer.metrics.counter("kernel.threads_terminated").inc()
        if claimed:
            # user-level close only: the kernel worker stays alive, so no
            # buggy native teardown (dangling fetches, freed transferables,
            # open ports) can occur
            kthread.user_level_closed_only = True
            return
        self._native_terminate(kthread)

    def _native_terminate(self, kthread: KernelThread) -> None:
        if kthread.kernel_worker is not None:
            kthread.kernel_worker.terminate()

    def _maybe_finish_deferred_termination(self, kthread: KernelThread) -> None:
        """Hook for policies that terminate once the thread is quiescent."""
        if (
            kthread.user_level_closed_only
            and not kthread.pending_fetches
            and not kthread.transferred_out
            and self.kernel.policy_allows_deferred_teardown(kthread)
        ):
            kthread.user_level_closed_only = False
            self._native_terminate(kthread)

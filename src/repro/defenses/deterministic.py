"""Shared machinery for deterministic-delivery defense backends.

DeterFox and the DetBrowser backend both enforce deterministic
*cross-origin-observable* delivery on a page's main thread by reusing the
kernel's two-stage scheduler: timers, rAF, fetch and subresource events
go through a per-page :class:`KernelSpace`, and worker→main message
deliveries are re-routed onto deterministic slots while the workers
themselves stay native.  This module is that common core; the two
backends differ only in what *else* they install (DeterFox keeps real
clocks, DetBrowser replaces them).
"""

from __future__ import annotations

from ..kernel.interface import KernelInterface
from ..kernel.space import KernelSpace


def install_deterministic_delivery(page, policy, grid, label: str) -> None:
    """Route the page's async completions through a deterministic grid
    (one per-page :class:`KernelSpace`)."""
    kspace = KernelSpace(page.loop, policy, grid, label=label)
    interface = KernelInterface(kspace)
    interface.install_timers(page.scope)
    interface.install_raf(page.scope)
    interface.install_fetch(page.scope)
    interface.install_dom_loading(page)
    wrap_worker_messages(page, kspace)


def wrap_worker_messages(page, kspace: KernelSpace) -> None:
    """Same-page determinism covers worker message delivery.

    Worker->main deliveries are re-ordered onto deterministic slots; the
    workers themselves stay native (no kernel threads, none of the
    lifecycle policies — the CVE rows stay open).  Unlike the kernel's
    :class:`~repro.kernel.comm.KernelInbox`, a message that arrives
    before the page sets ``onmessage`` is dropped, not queued.
    """
    native_worker = page.scope.Worker

    def deterministic_worker(src):
        handle = native_worker(src)
        user = {"handler": None}
        # the agent's per-run name, like every other slot chain key
        chain = f"msg:{handle._agent.name}"

        def receiver(event) -> None:
            handler = user["handler"]
            if handler is not None:
                kspace.scheduler.register_confirmed(
                    "message", handler, args=(event,), label="dworker-msg",
                    chain=chain,
                )

        def trap(fn) -> None:
            # run the native setter first: this is only a scheduling
            # change, the (possibly buggy) native assignment path is
            # untouched
            handle._native_set_onmessage(fn)
            user["handler"] = fn
            handle.set_raw("onmessage", receiver)

        handle.define_setter_trap("onmessage", trap)
        handle.set_raw("onmessage", receiver)
        return handle

    page.scope.Worker = deterministic_worker

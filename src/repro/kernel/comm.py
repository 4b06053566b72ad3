"""Kernel/user message overlay (paper §III-E2).

"Because there only exists one channel, i.e., the postMessage and
onmessage one, between two threads, we create an overlay upon the
channel."  Every message the kernel forwards is wrapped in an envelope
with a type field; kernel-space traffic (clock exchange, thread source,
policy handshakes like ``pendingChildFetch``) is handled by kernel code,
user-space traffic by the scheduler of the receiving thread.

User payloads that *look like* envelopes are escaped before wrapping so a
malicious page cannot spoof kernel commands.

:class:`KernelInbox` is the kernel's receiving end of one channel, used
by all three JSKernel routes: window self-messaging (``window-msg``),
page → worker (``worker-inbox``) and worker → page (``worker-msg``).
Each inbound user message becomes one ``message`` kernel event on the
channel's slot chain, so it reaches the user handler on the
deterministic time axis.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..runtime.messaging import MessageEvent

ENVELOPE_KEY = "__jskernel__"
TYPE_USER = "user"
TYPE_KERNEL = "kernel"
TYPE_ESCAPED = "escaped-user"


def wrap_user(payload: Any) -> Dict[str, Any]:
    """Wrap a user payload for transport."""
    if isinstance(payload, dict) and ENVELOPE_KEY in payload:
        # spoofing attempt (or unlucky collision): escape one level
        return {ENVELOPE_KEY: TYPE_ESCAPED, "payload": payload}
    return {ENVELOPE_KEY: TYPE_USER, "payload": payload}


def wrap_kernel(command: str, data: Any = None) -> Dict[str, Any]:
    """Wrap a kernel-space command."""
    return {ENVELOPE_KEY: TYPE_KERNEL, "command": command, "data": data}


def classify(message: Any) -> Tuple[str, Any, Optional[str]]:
    """Classify an incoming message.

    Returns ``(kind, payload, command)`` where kind is ``"user"``,
    ``"kernel"`` or ``"raw"`` (a message that did not come from a kernel
    endpoint — e.g. posted before the kernel was installed).
    """
    if not isinstance(message, dict) or ENVELOPE_KEY not in message:
        return "raw", message, None
    envelope_type = message[ENVELOPE_KEY]
    if envelope_type == TYPE_KERNEL:
        return "kernel", message.get("data"), message.get("command")
    if envelope_type == TYPE_ESCAPED:
        return "user", message.get("payload"), None
    return "user", message.get("payload"), None


class KernelInbox:
    """The kernel's receiving end of one ``postMessage`` channel.

    :meth:`receive` is the native ``onmessage``.  Kernel commands go to
    ``on_command(command, data)`` (dropped when it is None); user
    messages are dropped once ``thread`` (a kernel thread, or None for
    the window channel) is closed, and otherwise re-wrapped and
    registered as a confirmed ``message`` event on ``chain``.  The event
    calls whatever user :attr:`handler` is set when it dispatches.
    """

    def __init__(
        self,
        scheduler,
        label: str,
        chain: str,
        on_command: Optional[Callable[[Optional[str], Any], None]] = None,
        thread=None,
    ):
        self.scheduler = scheduler
        self.label = label
        self.chain = chain
        self.on_command = on_command
        self.thread = thread
        #: The user's ``onmessage`` (set through a kernel setter trap).
        self.handler: Optional[Callable[[MessageEvent], None]] = None
        # bound once: every message event shares this callback object
        self._deliver_cb = self._deliver

    def install(self, scope) -> None:
        """Make :meth:`receive` ``scope``'s native ``onmessage``; user
        assignments to ``onmessage`` set :attr:`handler` instead."""
        scope.set_raw("onmessage", self.receive)
        scope.define_setter_trap("onmessage", self._set_handler)
        scope.seal_attribute("onmessage")

    def _set_handler(self, handler) -> None:
        self.handler = handler

    def receive(self, event: MessageEvent) -> None:
        """Native ``onmessage``: route one inbound message."""
        kind, payload, command = classify(event.data)
        if kind == "kernel":
            if self.on_command is not None:
                self.on_command(command, payload)
            return
        if self.thread is not None and not self.thread.alive:
            return
        delivered = MessageEvent(
            payload,
            origin=event.origin,
            timestamp=event.timestamp,
            transferred=event.transferred,
        )
        self.scheduler.register_confirmed(
            "message", self._deliver_cb, args=(delivered,), label=self.label,
            chain=self.chain,
        )

    def _deliver(self, message: MessageEvent) -> None:
        handler = self.handler
        if handler is not None:
            handler(message)

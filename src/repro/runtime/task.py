"""Tasks and task sources.

A :class:`Task` is one macrotask on an event loop: a callback plus the
metadata the loop needs to order and account for it.  ``TaskSource``
identifies which browser subsystem enqueued the task — the same notion as
HTML's task sources — and is what lets defenses (Fuzzyfox's pause tasks,
JSKernel's dispatcher) and attacks (loopscan's event-loop profiling) reason
about queue composition.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Tuple


class TaskSource(enum.Enum):
    """Which subsystem produced a task (mirrors HTML task sources)."""

    SCRIPT = "script"
    TIMER = "timer"
    MESSAGE = "message"
    NETWORK = "network"
    DOM = "dom"
    RENDER = "render"
    WORKER = "worker"
    STORAGE = "storage"
    MEDIA = "media"
    PAUSE = "pause"  # Fuzzyfox's injected pause tasks
    KERNEL = "kernel"  # JSKernel dispatcher bookkeeping


class Task:
    """One macrotask: callback, arguments, ordering and cost metadata.

    Attributes:
        callback: the Python callable standing in for the JS function.
        args: positional arguments for the callback.
        source: the :class:`TaskSource` that enqueued the task.
        ready_time: earliest virtual time the task may run.
        cost: fixed synchronous cost charged when the task is dispatched
            (the callback may consume additional cost while running).
        label: free-form debugging/trace label.
        cancelled: cancelled tasks are skipped by the loop.
    """

    __slots__ = (
        "callback",
        "args",
        "source",
        "ready_time",
        "cost",
        "label",
        "cancelled",
    )

    def __init__(
        self,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        source: TaskSource = TaskSource.SCRIPT,
        ready_time: int = 0,
        cost: int = 0,
        label: str = "",
    ):
        self.callback = callback
        self.args = args
        self.source = source
        self.ready_time = ready_time
        self.cost = cost
        self.label = label or getattr(callback, "__name__", "task")
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the task as not-to-run (idempotent)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.label!r} src={self.source.value} ready={self.ready_time}>"


class Microtask:
    """A microtask (promise reaction): runs at the end of the current task."""

    __slots__ = ("callback", "args", "cost", "label")

    def __init__(
        self,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        cost: int = 0,
        label: str = "",
    ):
        self.callback = callback
        self.args = args
        self.cost = cost
        self.label = label or getattr(callback, "__name__", "microtask")

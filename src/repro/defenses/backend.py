"""The pluggable defense-backend interface.

A defense used to be a single opaque ``install(browser)`` method; every
mechanism it carried — clock degradation, scheduling changes, worker
replacement, API wrapping — was fused into one mutation soup.  The
backend interface splits that soup into four explicit **capability
slots**, mirroring the interposition surfaces the paper's Table I
defenses actually differ on:

``clock``
    Replace the browser's clock-policy factories (``performance.now``,
    and optionally the animation/media clock).
``scheduler``
    Change *when* asynchronous completions are delivered (pause pumps,
    deterministic delivery grids, kernel two-stage scheduling).
``worker``
    Change the worker / SharedArrayBuffer substrate (polyfills, kernel
    thread managers, SAB counter wrapping).
``scope``
    Everything else reachable through scope interposition: API wrapping
    costs, JS engine slowdown, network shaping, compatibility fragility.

A backend *declares* the capabilities it exercises (``capabilities``)
and *provides* a slot object per capability; :meth:`DefenseBackend.install`
validates that the two agree — a slot covering an undeclared capability
or a declared capability with no covering slot is a :class:`PolicyError`
at install time, not a silent lie in a docstring.  Composite backends
(JSKernel installs everything through one page hook) may declare a
single slot that ``covers`` several capabilities.

Installation is idempotent per browser: installing the same backend
object twice is a no-op, and the first install leaves a receipt on the
browser (``browser.defense_receipts``) recording which slots were
applied; the conformance tests (``tests/test_defense_backends.py``)
read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..errors import PolicyError
from .base import Defense

#: The four interposition surfaces, in canonical apply order.
CAPABILITIES: Tuple[str, ...] = ("clock", "scheduler", "worker", "scope")


def _covers(kind: str) -> frozenset:
    return frozenset({kind})


@dataclass(frozen=True)
class ClockSlot:
    """Clock interposition: factories for new-scope clock policies."""

    #: Factory for ``performance.now`` policies (one per scope/thread).
    policy_factory: Callable[[], object]
    #: Factory for the animation/media clock policy; ``None`` keeps the
    #: browser default (exact), which is how Tor stays animation-vulnerable.
    animation_policy_factory: Optional[Callable[[], object]] = None
    covers: frozenset = field(default_factory=lambda: _covers("clock"))


@dataclass(frozen=True)
class SchedulerSlot:
    """Scheduling interposition: hooks that change delivery timing."""

    page_hook: Optional[Callable] = None
    worker_hook: Optional[Callable] = None
    covers: frozenset = field(default_factory=lambda: _covers("scheduler"))


@dataclass(frozen=True)
class WorkerSlot:
    """Worker/SAB interposition: replace the threading substrate."""

    page_hook: Optional[Callable] = None
    worker_hook: Optional[Callable] = None
    covers: frozenset = field(default_factory=lambda: _covers("worker"))


@dataclass(frozen=True)
class ScopeSlot:
    """General scope interposition: wrapping, costs, browser plumbing."""

    #: Runs once against the Browser at install time (network shaping …).
    browser_hook: Optional[Callable] = None
    page_hook: Optional[Callable] = None
    worker_hook: Optional[Callable] = None
    covers: frozenset = field(default_factory=lambda: _covers("scope"))


@dataclass(frozen=True)
class InstallReceipt:
    """What one backend install actually did (stored on the browser)."""

    name: str
    capabilities: frozenset
    slots: Tuple[str, ...]


class DefenseBackend(Defense):
    """A defense expressed as capability slots instead of raw mutation.

    Subclasses declare :attr:`capabilities` and override the slot
    providers they need; the base :meth:`install` validates and applies
    them.  Backends with no capabilities (the legacy browsers) install
    nothing, by construction.
    """

    #: The interposition surfaces this backend exercises.
    capabilities: frozenset = frozenset()

    # -- slot providers (override the ones the backend uses) -----------
    def clock_slot(self, browser) -> Optional[ClockSlot]:
        """The clock interposition this backend performs (or ``None``)."""
        return None

    def scheduler_slot(self, browser) -> Optional[SchedulerSlot]:
        """The scheduling interposition this backend performs."""
        return None

    def worker_slot(self, browser) -> Optional[WorkerSlot]:
        """The worker/SAB interposition this backend performs."""
        return None

    def scope_slot(self, browser) -> Optional[ScopeSlot]:
        """The general scope interposition this backend performs."""
        return None

    # ------------------------------------------------------------------
    def install(self, browser) -> None:
        """Validate slot declarations and apply them (idempotent)."""
        receipts = getattr(browser, "defense_receipts", None)
        if receipts is None:
            receipts = browser.defense_receipts = {}
        if id(self) in receipts:
            return

        unknown = self.capabilities - set(CAPABILITIES)
        if unknown:
            raise PolicyError(
                f"defense {self.name!r} declares unknown capabilities: {sorted(unknown)}"
            )

        providers = (
            ("clock", self.clock_slot),
            ("scheduler", self.scheduler_slot),
            ("worker", self.worker_slot),
            ("scope", self.scope_slot),
        )
        slots = []
        covered = set()
        for kind, provider in providers:
            slot = provider(browser)
            if slot is None:
                continue
            undeclared = slot.covers - self.capabilities
            if undeclared:
                raise PolicyError(
                    f"defense {self.name!r} provides a {kind} slot covering "
                    f"undeclared capabilities: {sorted(undeclared)}"
                )
            slots.append((kind, slot))
            covered |= slot.covers
        missing = self.capabilities - covered
        if missing:
            raise PolicyError(
                f"defense {self.name!r} declares capabilities with no covering "
                f"slot: {sorted(missing)}"
            )

        for kind, slot in slots:
            self._apply(browser, kind, slot)
        receipts[id(self)] = InstallReceipt(
            name=self.name,
            capabilities=frozenset(self.capabilities),
            slots=tuple(kind for kind, _ in slots),
        )

    # ------------------------------------------------------------------
    def _apply(self, browser, kind: str, slot) -> None:
        if kind == "clock":
            browser.clock_policy_factory = slot.policy_factory
            if slot.animation_policy_factory is not None:
                browser.animation_clock_policy_factory = slot.animation_policy_factory
            return
        browser_hook = getattr(slot, "browser_hook", None)
        if browser_hook is not None:
            browser_hook(browser)
        if slot.page_hook is not None:
            browser.page_hooks.append(slot.page_hook)
        if slot.worker_hook is not None:
            browser.worker_hooks.append(slot.worker_hook)

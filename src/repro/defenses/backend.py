"""The one defense install path.

Every defense of the paper changes a browser in at most four places:
the clock-policy factories, a one-time browser setup, each new page and
each new worker.  A defense states those four things directly —
:meth:`DefenseBackend.clock_policies`, :meth:`DefenseBackend.prepare`,
``on_page`` and ``on_worker`` — and :meth:`DefenseBackend.install` is
the only code that applies them.  Subclasses never override ``install``:
the benchmark's traced pass times defense install by wrapping this one
method.

A defense that touches a page in several ways does so in one ``on_page``
hook, in the order it states there (JavaScript Zero polyfills ``Worker``
before it wraps the scope; Deterministic Browser installs deterministic
delivery before it wraps SharedArrayBuffer).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple


class DefenseBackend:
    """A defense: clock policies, browser setup, page and worker hooks.

    The base class installs nothing, which is the legacy baseline.
    """

    #: Registry/report name.
    name = "none"
    #: Which browser the defense ships on (None = any).
    base_browser: Optional[str] = None
    #: Called with each new Page (``None``: pages stay native).
    on_page: Optional[Callable] = None
    #: Called with each new WorkerAgent before its script runs.
    on_worker: Optional[Callable] = None

    def clock_policies(self, browser) -> Tuple[Optional[Callable], Optional[Callable]]:
        """The ``(performance.now, animation/media)`` clock-policy
        factories; ``None`` keeps the browser default."""
        return None, None

    def prepare(self, browser) -> None:
        """One-time browser setup, before any page exists."""

    def install(self, browser) -> None:
        """Apply the defense to a freshly constructed browser."""
        now_factory, animation_factory = self.clock_policies(browser)
        if now_factory is not None:
            browser.clock_policy_factory = now_factory
        if animation_factory is not None:
            browser.animation_clock_policy_factory = animation_factory
        self.prepare(browser)
        if self.on_page is not None:
            browser.page_hooks.append(self.on_page)
        if self.on_worker is not None:
            browser.worker_hooks.append(self.on_worker)

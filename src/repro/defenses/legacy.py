"""Legacy browsers: Chrome, Firefox, Edge with no extra defense.

"Legacy Three" in Table I: the commercial browsers of the paper's era,
whose only timing defense is their shipped clock resolution (already part
of the :class:`BrowserProfile`).
"""

from __future__ import annotations

from .backend import DefenseBackend


class LegacyBrowser(DefenseBackend):
    """No defense at all; the Table I baseline columns.

    States no clock, setup or hook, so the base class installs nothing
    — which is the point of the baseline.
    """

    def __init__(self, browser: str = "chrome"):
        self.base_browser = browser
        self.name = f"legacy-{browser}"

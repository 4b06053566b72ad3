"""Defense registry.

The registry maps the paper's Table I column names to
:class:`~repro.defenses.backend.DefenseBackend` factories so the matrix
harness can iterate them; :func:`make_browser` builds a browser with one
installed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import UnknownDefenseError
from ..runtime.browser import Browser
from ..runtime.profiles import BrowserProfile, by_name, vulnerable
from .backend import DefenseBackend

_registry: Dict[str, Callable[[], DefenseBackend]] = {}


def register(name: str, factory: Callable[[], DefenseBackend]) -> None:
    """Add a defense factory to the registry."""
    _registry[name] = factory


def create(name: str) -> DefenseBackend:
    """Instantiate a registered defense.

    Raises :class:`~repro.errors.UnknownDefenseError` (a ``KeyError``
    subclass) listing :func:`available` backends for unknown names.
    """
    factory = _registry.get(name)
    if factory is None:
        raise UnknownDefenseError(name, available())
    return factory()


def available() -> List[str]:
    """All registered defense names."""
    return sorted(_registry)


def make_browser(
    defense_name: str,
    browser_name: str = "chrome",
    seed: int = 0,
    with_bugs: bool = True,
) -> Browser:
    """Build a browser running a defense, as the Table I setup does.

    ``with_bugs=True`` uses the vulnerable legacy profile (the paper
    downloads the vulnerable browser build and layers the defense on it).
    """
    defense = create(defense_name)
    base = defense.base_browser or browser_name
    profile: BrowserProfile = vulnerable(base) if with_bugs else by_name(base)
    return Browser(profile=profile, defense=defense, seed=seed)

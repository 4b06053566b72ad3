"""Defenses evaluated in the paper's Table I, plus ablation variants."""

from .backend import DefenseBackend
from .base import available, create, make_browser, register
from .chromezero import ChromeZero, PolyfillWorkerHandle
from .detbrowser import DetBrowser, DetSharedBuffer
from .deterfox import DeterFox
from .fuzzyfox import Fuzzyfox
from .jskernel_defense import (
    JSKernelDefense,
    JSKernelFuzzy,
    JSKernelNoCvePolicies,
    JSKernelNoDeterminism,
)
from .legacy import LegacyBrowser
from .torbrowser import TorBrowser

# The Table I columns.
register("legacy-chrome", lambda: LegacyBrowser("chrome"))
register("legacy-firefox", lambda: LegacyBrowser("firefox"))
register("legacy-edge", lambda: LegacyBrowser("edge"))
register("fuzzyfox", Fuzzyfox)
register("deterfox", DeterFox)
register("tor", TorBrowser)
register("chromezero", ChromeZero)
register("jskernel", JSKernelDefense)
# Ablations (not paper columns).
register("jskernel-nodet", JSKernelNoDeterminism)
register("jskernel-nocve", JSKernelNoCvePolicies)
register("jskernel-fuzzy", JSKernelFuzzy)
# The Deterministic Browser head-to-head backend (cube comparison).
register("detbrowser", DetBrowser)

#: The seven defense configurations of Table I, in column order.
TABLE1_DEFENSES = [
    "legacy-chrome",
    "legacy-firefox",
    "legacy-edge",
    "fuzzyfox",
    "deterfox",
    "tor",
    "chromezero",
    "jskernel",
]

#: Default columns of the defense × attack cube: one legacy baseline,
#: the four prior defenses, and the JSKernel/DetBrowser head-to-head.
CUBE_DEFENSES = [
    "legacy-chrome",
    "fuzzyfox",
    "deterfox",
    "tor",
    "chromezero",
    "jskernel",
    "detbrowser",
]

__all__ = [
    "CUBE_DEFENSES",
    "ChromeZero",
    "DefenseBackend",
    "DetBrowser",
    "DetSharedBuffer",
    "DeterFox",
    "Fuzzyfox",
    "JSKernelDefense",
    "JSKernelFuzzy",
    "JSKernelNoCvePolicies",
    "JSKernelNoDeterminism",
    "LegacyBrowser",
    "PolyfillWorkerHandle",
    "TABLE1_DEFENSES",
    "TorBrowser",
    "available",
    "create",
    "make_browser",
    "register",
]

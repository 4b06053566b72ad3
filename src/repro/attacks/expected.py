"""Reconstructed ground truth for Table I.

The PDF-to-text conversion of the paper loses the check/cross glyphs, so
the exact cells of Table I cannot be read off.  This matrix is the
reconstruction used for comparison, derived from the paper's prose:

* "JSKernel can defend against all existing attacks" → the jskernel
  column is all-defended;
* legacy Chrome/Firefox/Edge are the vulnerable baselines → all-✗;
* script parsing / image decoding "still possible in all the existing
  defenses except for JSKernel and DeterFox, which adopt determinism";
  the same determinism argument covers the cache attack and the
  rAF-delivery attacks (history sniffing, SVG filtering, floating
  point) that DeterFox's own paper evaluates;
* "Fuzzyfox does defend against the clock edge attack as claimed" —
  and Chrome Zero inherits the same fuzzy-time mechanism for explicit
  clocks, so both defend clock-edge and nothing else among the timing
  rows; DeterFox and Tor keep exact clock edges and stay vulnerable;
* loopscan: "except for JSKernel, all other defenses are vulnerable";
* CSS-animation and video/WebVTT clocks are compositor/media time,
  untouched by every evaluated defense except JSKernel's kernel clock;
* "Chrome Zero can defend against some vulnerabilities at the price of
  reduced functionalities as Chrome Zero only adopts a polyfill
  implementation of a web worker" — the polyfill removes the native
  worker lifecycle, defeating the teardown/UAF CVEs and (via the
  main-thread XHR path) the worker SOP bypass, but it does not touch
  error-message sanitisation or indexedDB, so the information-
  disclosure CVEs remain.

Each cell is ``True`` when the defense PREVENTS the attack.
"""

from __future__ import annotations

from typing import Dict, List

from ..defenses import TABLE1_DEFENSES
from .registry import attack_names

_TIMING_ROWS = [
    "cache-attack",
    "script-parsing",
    "image-decoding",
    "clock-edge",
    "history-sniffing",
    "svg-filtering",
    "floating-point",
    "loopscan",
    "css-animation",
    "video-webvtt",
]

_CVE_ROWS = [
    "cve-2018-5092",
    "cve-2017-7843",
    "cve-2015-7215",
    "cve-2014-3194",
    "cve-2014-1719",
    "cve-2014-1488",
    "cve-2014-1487",
    "cve-2013-6646",
    "cve-2013-5602",
    "cve-2013-1714",
    "cve-2011-1190",
    "cve-2010-4576",
]

#: CVEs the Chrome Zero worker polyfill incidentally defeats.
_CHROMEZERO_DEFENDED_CVES = {
    "cve-2018-5092",
    "cve-2014-3194",
    "cve-2014-1719",
    "cve-2014-1488",
    "cve-2013-6646",
    "cve-2013-5602",
    "cve-2013-1714",
}

#: Timing rows DeterFox's determinism covers.
_DETERFOX_DEFENDED = {
    "cache-attack",
    "script-parsing",
    "image-decoding",
    "history-sniffing",
    "svg-filtering",
    "floating-point",
}


def expected_matrix() -> Dict[str, Dict[str, bool]]:
    """attack name -> defense name -> defended?"""
    matrix: Dict[str, Dict[str, bool]] = {}
    for attack in attack_names():
        row: Dict[str, bool] = {}
        for defense in TABLE1_DEFENSES:
            row[defense] = _expected_cell(attack, defense)
        matrix[attack] = row
    return matrix


def _expected_cell(attack: str, defense: str) -> bool:
    if defense.startswith("legacy-"):
        return False
    if defense == "jskernel":
        return True
    if defense == "fuzzyfox":
        return attack == "clock-edge"
    if defense == "deterfox":
        return attack in _DETERFOX_DEFENDED
    if defense == "tor":
        return False
    if defense == "chromezero":
        if attack == "clock-edge":
            return True
        return attack in _CHROMEZERO_DEFENDED_CVES
    raise KeyError(f"no expectation for defense {defense!r}")


#: The paper-extending finding (pinned by test): clock-interposition
#: defenses that leave shared-memory accesses native are bypassed by the
#: counter-thread clock — the attack touches no clock API at all, so
#: fuzzing/clamping explicit clocks never sees it.  Defenses that
#: mediate the memory itself (jskernel's slot pacing, detbrowser's
#: metronome) are expected to hold.
EXPECTED_BYPASSES: Dict[str, Dict[str, bool]] = {
    # attack -> defense -> defended? (False = demonstrably bypassed)
    "counter-thread-clock": {
        "fuzzyfox": False,
        "tor": False,
        "jskernel": True,
        "detbrowser": True,
    },
}


def timing_rows() -> List[str]:
    """The implicit-clock rows in Table I order."""
    return list(_TIMING_ROWS)


def cve_rows() -> List[str]:
    """The CVE rows in Table I order."""
    return list(_CVE_ROWS)

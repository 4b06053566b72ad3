"""Integration tests for the kernel/user message overlay (paper §III-E2)."""

import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.kernel import comm
from repro.runtime.simtime import ms


def test_user_payloads_round_trip_unchanged(kernel_browser, kernel_page):
    payloads = [
        42,
        "text",
        [1, 2, 3],
        {"nested": {"deep": True}},
        None,
        {"__jskernel__": "kernel", "command": "spoof"},  # envelope-shaped
    ]
    received = []

    def script(scope):
        def worker_main(ws):
            ws.onmessage = lambda event: ws.postMessage(event.data)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: received.append(event.data)
        for payload in payloads:
            worker.postMessage(payload)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(500))
    assert received == payloads


def test_kernel_traffic_is_invisible_to_user_handlers(kernel_browser, kernel_page):
    """The load-user-thread / pendingChildFetch system messages must never
    surface in user onmessage handlers."""
    kernel_browser.network.host_simple(
        __import__("repro.runtime.origin", fromlist=["parse_url"]).parse_url(
            "https://app.example/f"
        ),
        5_000,
    )
    seen = []

    def script(scope):
        def worker_main(ws):
            ws.fetch("/f").then(lambda r: ws.postMessage("fetched"))

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.append(event.data)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(500))
    assert seen == ["fetched"]  # no envelopes, no sys commands


@settings(max_examples=30, deadline=None)
@given(
    payload=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=10,
    )
)
def test_wrap_classify_round_trip_property(payload):
    kind, unwrapped, command = comm.classify(comm.wrap_user(payload))
    assert kind == "user"
    assert unwrapped == payload
    assert command is None


@settings(max_examples=20, deadline=None)
@given(command=st.text(min_size=1, max_size=30), data=st.integers())
def test_kernel_envelopes_round_trip_property(command, data):
    kind, unwrapped, got_command = comm.classify(comm.wrap_kernel(command, data))
    assert kind == "kernel"
    assert got_command == command
    assert unwrapped == data


def test_only_the_inbox_and_deterfox_register_message_events():
    """Every JSKernel message route goes through ``KernelInbox``; only
    DeterFox/DetBrowser's worker-message route keeps its own code."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    writer = re.compile(r'register_confirmed\(\s*"message"')
    found = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if writer.search(path.read_text())
    )
    assert found == ["defenses/deterministic.py", "kernel/comm.py"]

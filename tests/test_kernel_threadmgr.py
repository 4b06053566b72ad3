"""Integration tests for kernel thread management."""

from repro.errors import SecurityError
from repro.kernel.threadmgr import KernelWorkerStub
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms


def kernel_instance(kernel_browser, kernel_page):
    return kernel_page.jskernel


def test_user_gets_a_stub_not_the_native_handle(kernel_browser, kernel_page):
    box = {}

    def script(scope):
        box["worker"] = scope.Worker(lambda ws: None)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(50))
    assert isinstance(box["worker"], KernelWorkerStub)


def test_kernel_thread_lifecycle_states(kernel_browser, kernel_page):
    box = {}

    def script(scope):
        box["worker"] = scope.Worker(lambda ws: ws.postMessage("up"))

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(100))
    kthread = kernel_page.jskernel.threads[0]
    assert kthread.status == "ready"  # user thread loaded
    box["worker"].terminate()
    assert kthread.status == "closed"
    assert not kthread.alive


def test_round_trip_through_kernel(kernel_browser, kernel_page):
    seen = []

    def script(scope):
        def worker_main(ws):
            ws.onmessage = lambda event: ws.postMessage(event.data + 1)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.append(event.data)
        worker.postMessage(1)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(200))
    assert seen == [2]


def test_worker_scope_apis_are_kernel_wrapped(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        def worker_main(ws):
            t0 = ws.performance.now()
            ws.busy_work(40.0)
            ws.postMessage(ws.performance.now() - t0)

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.__setitem__("delta", event.data)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(300))
    assert seen["delta"] < 2.0  # worker clock is a kernel clock too


def test_termination_is_user_level_only(kernel_browser, kernel_page):
    """The lifecycle policy keeps the kernel worker alive."""
    box = {}

    def script(scope):
        worker = scope.Worker(lambda ws: None)
        worker.terminate()
        box["worker"] = worker

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(100))
    kthread = kernel_page.jskernel.threads[0]
    assert kthread.status == "closed"
    assert kthread.user_level_closed_only
    # the native agent underneath was never terminated
    agent = kernel_browser.workers[0]
    assert agent.state != "terminated"


def test_messages_to_closed_thread_are_dropped(kernel_browser, kernel_page):
    seen = []

    def script(scope):
        def worker_main(ws):
            ws.onmessage = lambda event: ws.postMessage("reply")

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.append(event.data)
        worker.terminate()
        worker.postMessage("into the void")

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(200))
    assert seen == []


def test_pending_fetch_handshake(kernel_browser, kernel_page):
    """Listing 4's pendingChildFetch/confirmFetch system messages."""
    kernel_browser.network.host_simple(
        parse_url("https://app.example/file"), 30_000
    )
    snapshots = {}

    def script(scope):
        def worker_main(ws):
            ws.fetch("/file").then(lambda r: ws.postMessage("done"))
            ws.postMessage("started")

        worker = scope.Worker(worker_main)

        def on_message(event):
            kthread = kernel_page.jskernel.threads[0]
            snapshots[event.data] = set(kthread.pending_fetches)

        worker.onmessage = on_message

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(500))
    assert len(snapshots["started"]) == 1  # pending while in flight
    assert snapshots["done"] == set()  # settled and cleared


def test_worker_xhr_blocked_by_origin_policy(kernel_browser, kernel_page):
    kernel_browser.network.host_simple(
        parse_url("https://victim.example/api"), 100, body="secret"
    )
    seen = {}

    def script(scope):
        def worker_main(ws):
            xhr = ws.XMLHttpRequest()
            xhr.open("GET", "https://victim.example/api")
            try:
                xhr.send()
                ws.postMessage("sent")
            except SecurityError as exc:
                ws.postMessage(f"blocked:{exc}")

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.__setitem__("result", event.data)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(300))
    assert seen["result"].startswith("blocked:")


def test_import_scripts_errors_sanitized(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        def worker_main(ws):
            try:
                ws.importScripts("https://victim.example/secret-lib.js")
            except Exception as exc:
                ws.postMessage(str(exc))

        worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.__setitem__("message", event.data)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(300))
    assert seen["message"] == "Script error."
    assert "victim" not in seen["message"]


def test_worker_error_events_sanitized(kernel_browser, kernel_page):
    seen = {}

    def script(scope):
        worker = scope.Worker("https://victim.example/w.js")
        worker.onerror = lambda event: seen.__setitem__("message", event.message)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(300))
    assert seen["message"] == "Script error."


def test_stub_onmessage_trap_is_sealed(kernel_browser, kernel_page):
    outcome = {}

    def script(scope):
        worker = scope.Worker(lambda ws: None)
        try:
            worker.define_setter_trap("onmessage", lambda fn: None)
        except SecurityError:
            outcome["blocked"] = True

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(100))
    assert outcome.get("blocked")


def test_transfer_neuter_policy_detaches_sender(kernel_browser, kernel_page):
    box = {}

    def script(scope):
        buffer = scope.ArrayBuffer(64)
        box["buffer"] = buffer

        def worker_main(ws):
            ws.onmessage = lambda event: None

        worker = scope.Worker(worker_main)
        worker.postMessage("take", transfer=[buffer])

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(200))
    assert box["buffer"].detached


def test_user_thread_source_travels_via_kernel_message(kernel_browser, kernel_page):
    """The bootstrap imports the user thread only after the kernel's
    load-user-thread system message arrives."""
    order = []

    def script(scope):
        def worker_main(ws):
            order.append("user-thread-ran")

        scope.Worker(worker_main)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(100))
    assert order == ["user-thread-ran"]
    assert kernel_page.jskernel.threads[0].worker_kspace is not None


def test_stub_state_follows_the_native_lifecycle(either_browser):
    page = either_browser.open_page("https://app.example/")
    box, states = {}, []

    def script(scope):
        box["worker"] = worker = scope.Worker(lambda ws: None)
        states.append(worker.state)

    page.run_script(script)
    either_browser.run(until=ms(100))
    states.append(box["worker"].state)
    box["worker"].terminate()
    states.append(box["worker"].state)
    assert states == ["spawning", "running", "terminated"]


def test_worker_close_stops_the_worker_like_native(either_browser):
    """``close()`` inside the initial script: nothing posted afterwards
    arrives, the worker ignores later messages, and the thread stays
    closed once the script returns."""
    page = either_browser.open_page("https://app.example/")
    box, seen = {}, []

    def script(scope):
        def worker_main(ws):
            ws.onmessage = lambda event: ws.postMessage("echo")
            ws.close()
            ws.postMessage("after close")

        box["worker"] = worker = scope.Worker(worker_main)
        worker.onmessage = lambda event: seen.append(event.data)
        scope.setTimeout(lambda: worker.postMessage("ping"), 50)

    page.run_script(script)
    either_browser.run(until=ms(200))
    assert seen == []
    assert box["worker"].state == "terminated"


def test_a_crashed_kernel_worker_reaches_the_stub_onerror(kernel_browser, kernel_page):
    """The native kernel worker dying (a fault-injected crash) surfaces as
    one policy-filtered error event on the user stub."""
    seen = []

    def script(scope):
        worker = scope.Worker(lambda ws: ws.setTimeout(lambda: None, 50))
        worker.onerror = lambda event: seen.append(event.message)

    kernel_page.run_script(script)
    kernel_browser.run(until=ms(20))
    (agent,) = kernel_browser.workers
    agent.crash("worker process died")
    kernel_browser.run(until=ms(100))
    assert seen == ["Script error."]

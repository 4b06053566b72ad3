"""Unit tests for ArrayBuffers and the SharedArrayBuffer counter timer."""

import pytest

from repro.errors import SimulationError, UseAfterFreeError
from repro.runtime import chrome
from repro.runtime.heap import SimHeap
from repro.runtime.sharedbuf import SharedCounterBuffer, SimArrayBuffer
from repro.runtime.sharedmem import SharedHeap
from repro.runtime.simtime import ms
from repro.runtime.simulator import ExecutionFrame, Simulator


def new_counter():
    """A counter on a shared heap outside any browser (no agent attached,
    so no policy interposes)."""
    sim = Simulator()
    heap = SharedHeap(sim, SimHeap(time_fn=lambda: sim.now, sim=sim), chrome())
    return sim, SharedCounterBuffer(heap)


def test_array_buffer_read_write():
    buffer = SimArrayBuffer(SimHeap(), 64)
    buffer.write(3, 0xAB)
    assert buffer.read(3) == 0xAB


def test_detached_buffer_rejects_access():
    buffer = SimArrayBuffer(SimHeap(), 64)
    buffer.detach()
    with pytest.raises(SimulationError):
        buffer.read(0)
    with pytest.raises(SimulationError):
        buffer.write(0, 1)


def test_freed_backing_store_is_uaf():
    buffer = SimArrayBuffer(SimHeap(), 64)
    buffer.ptr.free()
    with pytest.raises(UseAfterFreeError):
        buffer.read(0)


def test_transferred_view_shares_store():
    buffer = SimArrayBuffer(SimHeap(), 64)
    buffer.write(0, 7)
    view = buffer.transferred_view()
    buffer.detach()
    assert view.read(0) == 7
    view.write(0, 9)
    # new view of the same store still sees the write
    assert buffer.ptr.deref()[0] == 9


def test_counter_tracks_rate_activity():
    sim, counter = new_counter()
    frame = ExecutionFrame(0, "w")
    sim.push_frame(frame)
    counter.start_increment_activity(rate_per_ms=1000.0)
    sim.pop_frame()
    frame = ExecutionFrame(ms(5), "r")
    sim.push_frame(frame)
    assert counter.load() == pytest.approx(5000, abs=10)
    sim.pop_frame()


def test_counter_freezes_when_stopped():
    sim, counter = new_counter()
    frame = ExecutionFrame(0, "w")
    sim.push_frame(frame)
    counter.start_increment_activity(1000.0)
    sim.pop_frame()
    frame = ExecutionFrame(ms(3), "w")
    sim.push_frame(frame)
    counter.stop_increment_activity()
    sim.pop_frame()
    frame = ExecutionFrame(ms(10), "r")
    sim.push_frame(frame)
    assert counter.load() == pytest.approx(3000, abs=10)
    sim.pop_frame()


def test_store_resets_counter():
    _sim, counter = new_counter()
    counter.store(42)
    assert counter.load() == 42
    assert not counter.incrementing


def test_restarting_activity_accumulates():
    sim, counter = new_counter()
    frame = ExecutionFrame(0, "w")
    sim.push_frame(frame)
    counter.start_increment_activity(1000.0)
    frame.consume(ms(2))
    counter.start_increment_activity(2000.0)  # implicit stop + restart
    frame.consume(ms(1))
    assert counter.load() == pytest.approx(2000 + 2000, abs=20)
    sim.pop_frame()


def test_counter_math_is_the_sharedmem_atomics_core():
    """SharedCounterBuffer delegates to the same state machine AtomicCell
    uses."""
    from repro.runtime.sharedmem.atomics import AtomicCounterCore

    _sim, counter = new_counter()
    assert isinstance(counter._core, AtomicCounterCore)


def test_sab_timer_traces_pinned_byte_identical():
    """Golden pin for the atomics-core reroute: the sab-timer scenarios'
    exports must match the digests captured before the refactor.

    Regenerate tests/golden/sharedbuf_digests.json only on an intentional
    trace-schema change (recipe in the file's _comment).
    """
    import hashlib
    import json
    import os

    from repro.attacks import create
    from repro.trace import Tracer, capture
    from repro.trace.export import dump_chrome_trace, format_timeline

    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "sharedbuf_digests.json"
    )
    with open(golden_path, encoding="utf-8") as handle:
        golden = json.load(handle)

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    for defense in ("legacy-chrome", "jskernel", "detbrowser"):
        tracer = Tracer(enabled=True)
        with capture(tracer):
            create("sab-timer").run(defense)
        entry = golden[defense]
        assert len(tracer) == entry["events"], defense
        assert sha(dump_chrome_trace(tracer)) == entry["chrome_sha256"], defense
        assert sha(format_timeline(tracer)) == entry["timeline_sha256"], defense


def page_view_after_worker_loads(defense: str, worker_loads: int) -> dict:
    """The page creates a running SAB counter and a worker that loads it
    ``worker_loads`` times before posting back; on the message the page
    reads its clock and the counter."""
    from repro.defenses import make_browser

    browser = make_browser(defense, seed=0)
    page = browser.open_page("https://app.example/")
    seen = {}

    def script(scope):
        sab = scope.SharedArrayBuffer(8)
        sab.start_increment_activity(1000.0)

        def worker_main(ws):
            for _ in range(worker_loads):
                sab.load()
            ws.postMessage("done")

        def on_done(_event):
            seen["now"] = scope.performance.now()
            seen["load"] = sab.load()

        scope.Worker(worker_main).onmessage = on_done

    page.run_script(script)
    browser.run(until=ms(2000))
    return seen


@pytest.mark.parametrize(
    "defense, page_reads", [("jskernel", ("now",)), ("detbrowser", ("now", "load"))]
)
def test_a_workers_loads_are_interposed_by_the_workers_policy(defense, page_reads):
    """A read is interposed by the policy of the agent performing it, so a
    worker's loads of a page-created SAB leave the page's kernel clock
    (jskernel) and the page's deterministic read count (detbrowser) alone."""
    idle = page_view_after_worker_loads(defense, 0)
    busy = page_view_after_worker_loads(defense, 500)
    assert [busy[key] for key in page_reads] == [idle[key] for key in page_reads]

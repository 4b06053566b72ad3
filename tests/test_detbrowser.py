"""DetBrowser backend: deterministic clocks, delivery and SAB reads.

The defining property — script-observable time is a function of the
operation sequence alone, never of seeds or physical durations — is
checked with hypothesis over seeds and secret workloads.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.attacks import create as create_attack
from repro.defenses import make_browser
from repro.defenses.detbrowser import DetSharedMemPolicy
from repro.runtime import chrome
from repro.runtime.clock import DeterministicClockPolicy
from repro.runtime.heap import SimHeap
from repro.runtime.sharedbuf import SharedCounterBuffer
from repro.runtime.sharedmem import SharedHeap
from repro.runtime.simtime import ms, us
from repro.runtime.simulator import ExecutionFrame, Simulator


# ----------------------------------------------------------------------
# the clock policy itself
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(true_ns=st.lists(st.integers(0, 10**12), min_size=1, max_size=20))
def test_deterministic_policy_ignores_true_time(true_ns):
    policy = DeterministicClockPolicy(quantum_ns=1000)
    assert [policy.report(t) for t in true_ns] == [
        (i + 1) * 1000 for i in range(len(true_ns))
    ]


def test_deterministic_policy_default_quantum():
    policy = DeterministicClockPolicy()
    assert policy.report(123_456_789) == us(10)
    assert policy.report(0) == 2 * us(10)


# ----------------------------------------------------------------------
# page-visible clock readings: independent of seed AND secret work
# ----------------------------------------------------------------------
def clock_trace(seed: int, secret_ms: float) -> list:
    browser = make_browser("detbrowser", seed=seed, with_bugs=False)
    page = browser.open_page("https://app.example/")
    trace = []

    def script(scope):
        trace.append(scope.performance.now())
        scope.busy_work(secret_ms)  # secret-dependent computation
        trace.append(scope.performance.now())

        def tick(n):
            trace.append(scope.performance.now())
            if n < 3:
                scope.setTimeout(lambda: tick(n + 1), 1)

        scope.setTimeout(lambda: tick(1), 1)
        trace.append(scope.Date.now())

    page.run_script(script)
    browser.run(until=ms(200))
    return trace


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), secret_ms=st.floats(0.0, 30.0))
def test_clock_readings_independent_of_seed_and_secret(seed, secret_ms):
    assert clock_trace(seed, secret_ms) == clock_trace(0, 0.0)


def test_clock_readings_advance_by_quantum():
    trace = clock_trace(0, 0.0)
    performance = [t for t in trace[:2]]
    # two consecutive reads differ by exactly one 10us quantum, despite
    # arbitrary secret work between them
    assert performance[1] - performance[0] == us(10) / ms(1)


# ----------------------------------------------------------------------
# whole-scenario schedule: independent of the browser seed
# ----------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_clock_edge_schedule_seed_independent(seed):
    from repro.analysis.determinism import schedule_for_seed

    assert schedule_for_seed("clock-edge", "detbrowser", seed) == schedule_for_seed(
        "clock-edge", "detbrowser", 0
    )


# ----------------------------------------------------------------------
# SAB counter reads: a pure function of the reader's read count
# ----------------------------------------------------------------------
def det_reader_heap():
    """A shared heap with one agent, ``reader``, under DetSharedMemPolicy."""
    sim = Simulator()
    heap = SharedHeap(sim, SimHeap(time_fn=lambda: sim.now, sim=sim), chrome())
    heap.attach(SimpleNamespace(name="reader")).policy = DetSharedMemPolicy(us(10))
    return sim, heap


def load_as(sim, thread: str, at_ns: int, buf) -> int:
    sim.push_frame(ExecutionFrame(at_ns, thread))
    try:
        return buf.load()
    finally:
        sim.pop_frame()


@settings(max_examples=15, deadline=None)
@given(
    rate=st.floats(min_value=1.0, max_value=5000.0),
    true_gaps_ms=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=8),
)
def test_sab_reads_are_pure_function_of_read_count(rate, true_gaps_ms):
    def read_values(gaps):
        sim, heap = det_reader_heap()
        buf = SharedCounterBuffer(heap, label="det-test")
        buf.start_increment_activity(rate)
        values = []
        now = 0
        for gap in gaps:
            now += int(ms(gap))
            values.append(load_as(sim, "reader", now, buf))
        return values

    # however long the reader truly waits between loads, the observed
    # counter is reads x quantum x rate — the implicit timer is a metronome
    values = read_values(true_gaps_ms)
    metronome = read_values([0.5] * len(true_gaps_ms))
    assert values == metronome
    expected = [int((i + 1) * us(10) / ms(1) * rate) for i in range(len(values))]
    assert values == expected


def test_sab_writer_side_stays_native():
    """The policy shapes what the reader sees, never the writer's true
    progress: an agent without the policy reads the true count."""
    sim, heap = det_reader_heap()
    buf = SharedCounterBuffer(heap, label="det-test")
    buf.store(41)
    assert not buf.incrementing
    buf.start_increment_activity(1000.0)
    assert buf.incrementing
    assert load_as(sim, "reader", ms(5), buf) == 41 + 10  # one 10 us quantum
    assert load_as(sim, "writer", ms(5), buf) == 41 + 5000  # true 5 ms
    buf.stop_increment_activity()
    assert not buf.incrementing


# ----------------------------------------------------------------------
# cube-facing verdicts: timing rows defended, CVE surface open
# ----------------------------------------------------------------------
def test_detbrowser_defends_clock_edge():
    assert create_attack("clock-edge").run("detbrowser", seed=0).defended


def test_detbrowser_defends_sab_timer():
    assert create_attack("sab-timer").run("detbrowser", seed=0).defended


def test_detbrowser_does_not_close_the_cve_surface():
    assert not create_attack("cve-2018-5092").run("detbrowser", seed=0).defended

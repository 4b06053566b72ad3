"""Property-based tests of the kernel's core security invariant.

The deterministic-scheduling guarantee, stated operationally: **the
sequence of user-visible events and every timestamp/count a page can
observe is a function of the program alone — never of how long any
uninstrumentable (secret) computation took.**

Hypothesis drives a representative attacker program with arbitrary secret
durations injected at several points; the observable trace must be
byte-identical across all of them.
"""

from hypothesis import given, settings, strategies as st

from repro.defenses import JSKernelDefense
from repro.runtime import Browser, chrome
from repro.runtime.origin import parse_url
from repro.runtime.simtime import ms


def observable_trace(secret_ms_a: float, secret_ms_b: float, seed: int) -> list:
    """Run a multi-channel observer program; return everything it can see."""
    browser = Browser(profile=chrome(), defense=JSKernelDefense(), seed=seed)
    browser.network.host_simple(
        parse_url("https://app.example/resource"), 20_000, body="r"
    )
    page = browser.open_page("https://app.example/")
    trace = []

    def script(scope):
        trace.append(("t0", scope.performance.now()))

        # channel 1: timer chain with clock readings
        def tick(n):
            trace.append(("tick", n, scope.performance.now()))
            if n == 2:
                scope.busy_work(secret_ms_a)  # secret work inside a callback
            if n < 5:
                scope.setTimeout(lambda: tick(n + 1), 1)

        scope.setTimeout(lambda: tick(1), 1)

        # channel 2: rAF chain with per-frame secret work
        def frame(ts):
            trace.append(("raf", ts))
            scope.busy_work(secret_ms_b)
            if len([t for t in trace if t[0] == "raf"]) < 3:
                scope.requestAnimationFrame(frame)

        scope.requestAnimationFrame(frame)

        # channel 3: worker message counting (Listing 1's implicit clock)
        def worker_main(ws):
            def flood():
                ws.postMessage("m")
                ws.setTimeout(flood, 1)

            ws.setTimeout(flood, 1)

        worker = scope.Worker(worker_main)
        counts = {"n": 0}
        worker.onmessage = lambda event: counts.__setitem__("n", counts["n"] + 1)

        # channel 4: fetch completion relative to everything else
        scope.fetch("/resource").then(
            lambda r: trace.append(("fetch-done", scope.performance.now(), counts["n"]))
        )

        # channel 5: animation progress sampling around secret work
        el = scope.document.create_element("div")
        scope.document.body.append_child(el)
        scope.animate(el, "left", 0.0, 1000.0, 500.0)

        def sample():
            before = scope.getComputedStyle(el, "left")
            scope.busy_work(secret_ms_a)
            after = scope.getComputedStyle(el, "left")
            trace.append(("anim", before, after))

        scope.setTimeout(sample, 12)

    page.run_script(script)
    browser.run(until=ms(400))
    return trace


@settings(max_examples=12, deadline=None)
@given(
    secret_a=st.floats(min_value=0.0, max_value=40.0),
    secret_b=st.floats(min_value=0.0, max_value=25.0),
)
def test_observable_trace_independent_of_secret_durations(secret_a, secret_b):
    baseline = observable_trace(0.0, 0.0, seed=7)
    varied = observable_trace(secret_a, secret_b, seed=7)
    assert varied == baseline
    assert any(entry[0] == "fetch-done" for entry in baseline)  # program ran


@settings(max_examples=10, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["raf", "network", "dom", "message"]), min_size=2, max_size=12
    )
)
def test_completions_and_messages_keep_floor_order(kinds):
    """Messages are never slotted before earlier-registered completions,
    and completion slots are monotone among themselves."""
    from repro.kernel.policies.deterministic import DeterministicSchedulingPolicy
    from repro.kernel.policy import CompositePolicy, SchedulingGrid
    from repro.kernel.space import KernelSpace
    from repro.runtime.eventloop import EventLoop
    from repro.runtime.simulator import Simulator

    sim = Simulator()
    loop = EventLoop(sim, "prop")
    kspace = KernelSpace(loop, CompositePolicy([DeterministicSchedulingPolicy()]),
                         SchedulingGrid())
    from repro.kernel.scheduler import FLOOR_HORIZON

    last_completion_slot = -1
    for kind in kinds:
        event = kspace.scheduler.register(kind, chain="msg:prop" if kind == "message" else None)
        if kind == "message":
            # a message may never precede an already-registered completion
            assert event.predicted_time > last_completion_slot - FLOOR_HORIZON
            assert event.predicted_time >= min(
                last_completion_slot, kspace.clock.now + FLOOR_HORIZON
            )
        else:
            assert event.predicted_time > last_completion_slot
            last_completion_slot = event.predicted_time


@settings(max_examples=10, deadline=None)
@given(delays=st.lists(st.floats(min_value=0, max_value=50), min_size=1, max_size=8))
def test_timer_predictions_are_pure_functions_of_clock_and_delay(delays):
    """Two schedulers given the same call sequence assign identical slots."""
    from repro.kernel.policies.deterministic import DeterministicSchedulingPolicy
    from repro.kernel.policy import CompositePolicy, SchedulingGrid
    from repro.kernel.space import KernelSpace
    from repro.runtime.eventloop import EventLoop
    from repro.runtime.simulator import Simulator

    def slots():
        sim = Simulator()
        loop = EventLoop(sim, "prop")
        kspace = KernelSpace(loop, CompositePolicy([DeterministicSchedulingPolicy()]),
                             SchedulingGrid())
        return [kspace.scheduler.register("timeout", hint=ms(d)).predicted_time
                for d in delays]

    first = slots()
    assert first == slots()
    # and each slot is strictly after its requested delay
    for delay, slot in zip(delays, first):
        assert slot > ms(delay) - 1


@settings(max_examples=15, deadline=None)
@given(
    costs=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=20)
)
def test_kernel_clock_deterministic_under_call_pattern(costs):
    """Clock value depends only on the CALL COUNT, not on work between."""
    from repro.kernel.kclock import KernelClock, KernelPerformance
    from repro.runtime.simulator import Simulator

    def run(with_work):
        sim = Simulator()
        clock = KernelClock()
        perf = KernelPerformance(clock, sim)
        readings = []
        for cost in costs:
            if with_work:
                sim.consume(cost)
            readings.append(perf.now())
        return readings

    assert run(True) == run(False)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_simulation_is_reproducible_per_seed(seed):
    """Same seed -> identical event counts and end state."""
    def run():
        browser = Browser(profile=chrome(), seed=seed)
        page = browser.open_page("https://x.example/")
        browser.network.host_simple(parse_url("https://x.example/a"), 5_000)
        page.run_script(lambda scope: scope.fetch("/a").then(lambda r: None))
        browser.run(until=ms(100))
        return browser.sim.events_processed, browser.sim.dispatch_time

    assert run() == run()

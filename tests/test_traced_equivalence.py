"""Tracing must be an observer: it cannot change what the runtime does.

The fast path keeps every tracer touch behind ``if tracer.enabled``
branches; these properties verify the other half of the contract — that
enabling the tracer changes no dispatch schedule, no virtual timestamp
and no task outcome.  Hypothesis drives a mixed workload (timers with
arbitrary delays and costs, promise chains, postMessage ping-pong) and
compares the untraced run's task record stream against the traced one.
"""

from hypothesis import given, settings, strategies as st

from repro.runtime.eventloop import EventLoop
from repro.runtime.messaging import make_channel
from repro.runtime.promises import SimPromise
from repro.runtime.simulator import Simulator
from repro.runtime.simtime import ms
from repro.runtime.timers import TimerRegistry
from repro.trace import Tracer, capture


def _run_workload(timer_specs, promise_chain, rounds):
    """One deterministic mixed workload; returns its observable schedule."""
    sim = Simulator()
    main = EventLoop(sim, "main")
    worker = EventLoop(sim, "worker")
    records = []
    for loop in (main, worker):
        loop.task_observers.append(
            lambda task, start, end, name=loop.name: records.append(
                (name, task.label, task.source.value, start, end)
            )
        )
    timers = TimerRegistry(main)
    side_main, side_worker = make_channel("chan", main, worker, latency_ns=ms(1))
    log = []

    for i, (delay_ms, cost) in enumerate(timer_specs):
        def fire(i=i, cost=cost):
            sim.consume(cost)
            log.append(("timer", i, sim.now))
        timers.set_timeout(fire, delay_ms)

    promise = SimPromise(main, label="p")
    for i in range(promise_chain):
        promise = promise.then(lambda v, i=i: (log.append(("react", i, sim.now)), v)[1])
    timers.set_timeout(lambda: promise.resolve(0), 1)

    state = [0]

    def on_worker(event):
        side_worker.post(event.data + 1)

    def on_main(event):
        state[0] += 1
        log.append(("pong", event.data, sim.now))
        if state[0] < rounds:
            side_main.post(event.data + 1)

    side_worker.add_handler(on_worker)
    side_main.add_handler(on_main)
    if rounds:
        side_main.post(0)

    sim.run()
    return {
        "log": log,
        "records": records,
        "events_processed": sim.events_processed,
        "end_time": sim.dispatch_time,
        "tasks_run": (main.tasks_run, worker.tasks_run),
    }


@settings(max_examples=25, deadline=None)
@given(
    timer_specs=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 3_000_000)),
        min_size=0,
        max_size=15,
    ),
    promise_chain=st.integers(0, 5),
    rounds=st.integers(0, 5),
)
def test_traced_run_matches_untraced_run(timer_specs, promise_chain, rounds):
    untraced = _run_workload(timer_specs, promise_chain, rounds)
    tracer = Tracer()
    with capture(tracer):
        traced = _run_workload(timer_specs, promise_chain, rounds)
    assert traced == untraced
    # the traced run must actually have observed something when work ran
    if untraced["records"]:
        assert len(tracer) > 0


def test_two_traced_captures_serialise_identically():
    from repro.trace.export import dump_chrome_trace

    specs = [(3, 100_000), (3, 0), (7, 50_000)]
    exports = []
    for _ in range(2):
        tracer = Tracer()
        with capture(tracer):
            _run_workload(specs, promise_chain=3, rounds=3)
        exports.append(dump_chrome_trace(tracer))
    assert exports[0] == exports[1]

"""Tests for the JSKernel facade and configuration surface."""

from hypothesis import given, settings, strategies as st

from repro.defenses import JSKernelDefense
from repro.kernel import JSKernel, KernelEvent, KernelEventQueue, SchedulingGrid
from repro.kernel.kobjects import CANCELLED
from repro.kernel.policies import DeterministicSchedulingPolicy
from repro.kernel.policy import CompositePolicy
from repro.runtime import Browser, chrome
from repro.runtime.simtime import ms


def test_default_kernel_bundles_all_policies():
    kernel = JSKernel()
    assert kernel.policy.find("deterministic-scheduling")
    for name in (
        "worker-lifecycle",
        "transfer-neuter",
        "worker-xhr-origin",
        "error-sanitizer",
        "private-mode-storage",
    ):
        assert kernel.policy.find(name), name


def test_kernel_without_cve_policies():
    kernel = JSKernel(policies=[DeterministicSchedulingPolicy()])
    assert kernel.policy.find("deterministic-scheduling")
    assert kernel.policy.find("worker-lifecycle") is None


def test_install_tracks_instances():
    kernel = JSKernel()
    browser = Browser(profile=chrome(), defense=JSKernelDefense(kernel), seed=1)
    page_a = browser.open_page("https://a.example/")
    page_b = browser.open_page("https://b.example/")
    assert page_a.jskernel.kernel is kernel
    assert page_b.jskernel.kernel is kernel
    assert page_a.jskernel is not page_b.jskernel


def test_instance_for_unknown_page_is_none():
    Browser(profile=chrome(), defense=JSKernelDefense(JSKernel()), seed=1)
    other_page = Browser(profile=chrome(), seed=2).open_page("https://x.example/")
    assert getattr(other_page, "jskernel", None) is None


def test_custom_grid_changes_raf_slot():
    kernel = JSKernel(grid=SchedulingGrid(grids_ns={"raf": ms(20)}))
    browser = Browser(profile=chrome(), defense=JSKernelDefense(kernel), seed=1)
    page = browser.open_page("https://x.example/")
    timestamps = []

    def script(scope):
        scope.requestAnimationFrame(timestamps.append)

    page.run_script(script)
    browser.run(until=ms(200))
    assert timestamps == [20.0]


def test_single_policy_is_wrapped_in_composite():
    kernel = JSKernel(policies=[DeterministicSchedulingPolicy()])
    assert isinstance(kernel.policy, CompositePolicy)
    # a lone composite is used as is, not nested
    assert JSKernel(policies=[kernel.policy]).policy is kernel.policy


# ----------------------------------------------------------------------
# queue properties
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["push", "pop", "cancel", "confirm-head"]),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=40,
    )
)
def test_queue_pop_order_property(ops):
    """Each pop returns the live minimum-predicted-time event, cancelled
    events never come out at all, and the queue's depth is the number of
    live events after every operation (model-based check)."""
    queue = KernelEventQueue()
    model = []  # live events, mirroring the queue
    for op, value in ops:
        if op == "push":
            event = queue.push(KernelEvent("k", value, {"default": lambda: None}))
            model.append(event)
        elif op == "pop":
            event = queue.pop()
            if not model:
                assert event is None
            else:
                expected = min(model, key=lambda e: (e.predicted_time, e.id))
                assert event is expected
                model.remove(event)
        elif op == "cancel":
            # any live event, not only the head
            if model:
                victim = model.pop(value % len(model))
                queue.remove(victim, CANCELLED)
        elif op == "confirm-head":
            head = queue.top()
            if head is not None and head.status == "pending":
                head.confirm()
        assert len(queue) == len(model)

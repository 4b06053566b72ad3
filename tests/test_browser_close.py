"""``Browser.close``: a finished trial's DOM is freed by reference counting.

Every DOM is cyclic (``parent`` <-> ``children``, ``document`` <->
``anchors``), so a dead tree used to wait for a full cyclic collection.
``close`` cuts the tree's edges; these tests pin that it does, for every
Table I defense, and that it neither costs virtual time nor traces.
"""

import gc

import pytest

from repro.attacks.timing.history_sniffing import HistorySniffingAttack
from repro.defenses import TABLE1_DEFENSES, make_browser
from repro.runtime.dom import Document, Element
from repro.runtime.simulator import ExecutionFrame, Simulator
from repro.trace import capture

#: Elements a closed page may leave to the cyclic GC: its root and
#: ``<body>``, which stay in a cycle with their Document.
CYCLIC_ELEMENTS_BOUND = 10
#: GC-tracked objects a batch of links may add beyond one per link: the
#: batch list, ``<body>``'s first children list, the anchors index.
LINK_BATCH_TRACKED_SLACK = 8


@pytest.mark.parametrize("defense", TABLE1_DEFENSES)
def test_a_closed_trial_leaves_no_dom_tree_to_the_cyclic_gc(defense):
    # history sniffing builds a 2,200-link tree per trial
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        HistorySniffingAttack().run_trial(defense, "visited", seed=0)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sum(1 for obj in gc.garbage if isinstance(obj, Element))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked < CYCLIC_ELEMENTS_BOUND


def test_close_is_silent_in_time_and_trace_and_idempotent():
    with capture() as tracer:
        browser = make_browser("jskernel", seed=0)
    page = browser.open_page("https://app.example/")

    def build(scope) -> None:
        document = scope.document
        for tag in ("div", "a", "img"):
            element = document.body.append_child(document.create_element(tag))
            element.append_child(document.create_element("span"))
        element.pending_paint_cost = 1_000

    page.run_script(build)
    browser.run()
    document = page.document
    assert document.node_count() == 8 and document.anchors and document.paint_pending
    events, now = len(tracer), browser.sim.now
    assert events > 0
    for _ in range(2):
        browser.close()
        assert (len(tracer), browser.sim.now) == (events, now)
        assert document.serialize() == "<html></html>"
        assert document.node_count() == 1
        assert not document.anchors and not document.paint_pending
        assert document.body.parent is None and not document.body.connected


def test_a_link_adds_one_gc_tracked_object():
    # a leaf's containers are shared until written, so each link is one
    # object for the cyclic GC to scan, not two
    sim = Simulator()
    document = Document(sim)
    sim.push_frame(ExecutionFrame(0, "t"))
    count = 1_000
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        links = [document.create_element("a") for _ in range(count)]
        for link in links:
            link.attributes["href"] = "https://a.example/"
        document.body._insert(*links)
        added = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    assert document.node_count() == count + 2 and len(document.anchors) == count
    assert count <= added <= count + LINK_BATCH_TRACKED_SLACK

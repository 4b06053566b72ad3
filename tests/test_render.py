"""Unit tests for the renderer and requestAnimationFrame."""

import pytest

from repro.runtime.dom import Document, Element
from repro.runtime.eventloop import EventLoop
from repro.runtime.render import Renderer
from repro.runtime.simtime import FRAME_INTERVAL, ms
from repro.runtime.simulator import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    loop = EventLoop(sim, "render-test", task_dispatch_cost=0)
    doc = Document(sim)
    renderer = Renderer(loop, doc)
    return sim, loop, doc, renderer


def test_raf_fires_on_next_vsync(setup):
    sim, _loop, _doc, renderer = setup
    seen = []
    renderer.request_animation_frame(seen.append)
    sim.run(until=ms(100))
    assert len(seen) == 1
    assert renderer.frame_log[0][0] == FRAME_INTERVAL


def test_raf_chain_runs_at_frame_rate(setup):
    sim, _loop, _doc, renderer = setup
    timestamps = []

    def frame(ts):
        timestamps.append(ts)
        if len(timestamps) < 4:
            renderer.request_animation_frame(frame)

    renderer.request_animation_frame(frame)
    sim.run(until=ms(200))
    deltas = [timestamps[i + 1] - timestamps[i] for i in range(3)]
    for delta in deltas:
        assert delta == pytest.approx(FRAME_INTERVAL / 1e6, rel=0.01)


def test_cancel_animation_frame(setup):
    sim, _loop, _doc, renderer = setup
    seen = []
    raf_id = renderer.request_animation_frame(seen.append)
    renderer.cancel_animation_frame(raf_id)
    sim.run(until=ms(100))
    assert seen == []


def test_no_work_means_no_frames(setup):
    sim, _loop, doc, renderer = setup
    doc.dirty = False
    sim.run(until=ms(100))
    assert renderer.frames_rendered == 0


def test_dirty_document_produces_one_frame(setup):
    sim, _loop, doc, renderer = setup
    doc.mark_dirty()
    renderer.pump()
    sim.run(until=ms(100))
    assert renderer.frames_rendered == 1
    assert not doc.dirty


def test_heavy_paint_delays_next_frame(setup):
    sim, _loop, doc, renderer = setup
    element = doc.body.append_child(doc.create_element("canvas"))
    timestamps = []

    def frame(ts):
        timestamps.append(ts)
        if len(timestamps) == 1:
            element.pending_paint_cost = ms(30)  # blows the frame budget
            doc.mark_dirty()
        if len(timestamps) < 3:
            renderer.request_animation_frame(frame)

    renderer.request_animation_frame(frame)
    sim.run(until=ms(300))
    # the 30ms paint lands in frame 1, pushing frame 2 well past a vsync
    assert timestamps[1] - timestamps[0] > 25.0


def test_pending_paint_cost_consumed_once(setup):
    sim, _loop, doc, renderer = setup
    element = doc.body.append_child(doc.create_element("canvas"))
    element.pending_paint_cost = ms(5)
    doc.mark_dirty()
    renderer.pump()
    sim.run(until=ms(100))
    assert element.pending_paint_cost == 0


def test_visited_links_increase_style_cost(setup):
    sim, loop, doc, renderer = setup
    renderer.visited_fn = lambda href: href == "https://visited.example/"
    for href in ("https://visited.example/", "https://other.example/"):
        link = doc.body.append_child(doc.create_element("a"))
        link.attributes["href"] = href
    doc.mark_dirty()
    renderer.pump()
    sim.run(until=ms(100))
    visited_flags = [el.matched_visited for el in doc.get_elements_by_tag("a")]
    assert visited_flags == [True, False]


def test_animation_driver_keeps_frames_coming(setup):
    sim, _loop, doc, renderer = setup
    doc.dirty = False

    def driver():
        return renderer.frames_rendered < 3

    renderer.animation_drivers.append(driver)
    renderer.pump()
    sim.run(until=ms(200))
    assert renderer.frames_rendered >= 2


def _ten_thousand_node_page():
    """A 10k-element page: a 10-ary tree of links and divs, one pending paint."""
    sim = Simulator()
    loop = EventLoop(sim, "walk-free", task_dispatch_cost=0)
    doc = Document(sim)
    renderer = Renderer(loop, doc, visited_fn=lambda href: True)
    nodes = [doc.body]
    for index in range(10_000 - doc.node_count()):
        element = doc.create_element("a" if index % 3 else "div")
        element.attributes["href"] = "https://visited.example/"
        nodes[index // 10].append_child(element)
        nodes.append(element)
    assert doc.node_count() == 10_000
    element.pending_paint_cost = ms(1)
    return sim, doc, renderer, element


@pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
def test_frames_never_walk_the_tree(monkeypatch, dirty):
    sim, doc, renderer, painted = _ten_thousand_node_page()
    doc.dirty = dirty

    def no_walk(_self):
        raise AssertionError("a render frame walked the DOM tree")

    monkeypatch.setattr(Element, "descendants", no_walk)
    if dirty:
        renderer.pump()
    else:
        renderer.request_animation_frame(lambda _ts: None)
    sim.run(until=ms(500))
    assert renderer.frames_rendered == 1
    assert painted.pending_paint_cost == 0
    assert {link.matched_visited for link in doc.anchors} == {dirty}

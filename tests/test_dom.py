"""Unit tests for the DOM substrate and the indexes it maintains."""

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.errors import SimulationError
from repro.runtime.dom import Document
from repro.runtime.eventloop import EventLoop
from repro.runtime.render import Renderer
from repro.runtime.simulator import ExecutionFrame, Simulator
from repro.trace import capture


@pytest.fixture
def doc():
    return Document(Simulator())


def test_document_starts_with_html_and_body(doc):
    assert doc.document_element.tag == "html"
    assert doc.body.tag == "body"
    assert doc.body.connected
    assert doc.node_count() == 2


def test_create_and_append(doc):
    div = doc.create_element("DIV")
    assert div.tag == "div"
    assert not div.connected
    doc.body.append_child(div)
    assert div.connected
    assert div.parent is doc.body
    assert doc.node_count() == 3


def test_append_reparents(doc):
    a = doc.body.append_child(doc.create_element("a"))
    b = doc.body.append_child(doc.create_element("b"))
    b.append_child(a)
    assert a.parent is b
    assert a not in doc.body.children


def test_remove_child(doc):
    div = doc.body.append_child(doc.create_element("div"))
    doc.body.remove_child(div)
    assert not div.connected
    with pytest.raises(SimulationError):
        doc.body.remove_child(div)


def test_attributes(doc):
    div = doc.create_element("div")
    div.set_attribute("id", "main")
    assert div.get_attribute("id") == "main"
    assert div.get_attribute("missing") is None


def test_mutations_mark_document_dirty(doc):
    doc.dirty = False
    div = doc.create_element("div")
    doc.body.append_child(div)
    assert doc.dirty
    doc.dirty = False
    div.set_style("color", "red")
    assert doc.dirty


def test_src_triggers_resource_loader_when_connected(doc):
    loads = []
    doc.resource_loader = loads.append
    img = doc.create_element("img")
    img.set_attribute("src", "/a.png")  # not connected: no load
    assert loads == []
    doc.body.append_child(img)  # connected with src: load fires
    assert loads == [img]
    img.set_attribute("src", "/b.png")  # src change while connected
    assert loads == [img, img]


def test_serialization_is_deterministic(doc):
    div = doc.body.append_child(doc.create_element("div"))
    div.set_attribute("b", "2")
    div.set_attribute("a", "1")
    div.text = "hi"
    serialized = doc.serialize()
    assert serialized == '<html><body><div a="1" b="2">hi</div></body></html>'
    assert doc.serialize() == serialized


def test_descendants_depth_first(doc):
    a = doc.body.append_child(doc.create_element("a"))
    a.append_child(doc.create_element("b"))
    doc.body.append_child(doc.create_element("c"))
    tags = [el.tag for el in doc.document_element.descendants()]
    assert tags == ["body", "a", "b", "c"]


def test_get_elements_by_tag(doc):
    doc.body.append_child(doc.create_element("span"))
    doc.body.append_child(doc.create_element("span"))
    doc.body.append_child(doc.create_element("div"))
    assert len(doc.get_elements_by_tag("SPAN")) == 2


def test_get_elements_by_tag_includes_the_root(doc):
    # getElementsByTagName searches the whole document, <html> included
    assert doc.get_elements_by_tag("HTML") == [doc.document_element]
    assert doc.get_elements_by_tag("body") == [doc.body]


def test_dom_operations_consume_time(doc):
    sim = doc.sim
    frame = ExecutionFrame(0, "t")
    sim.push_frame(frame)
    doc.create_element("div")
    assert frame.elapsed > 0
    sim.pop_frame()


def _traced_document():
    """A document whose simulator records state accesses, inside a task frame."""
    with capture() as tracer:
        sim = Simulator()
    doc = Document(sim)
    frame = ExecutionFrame(0, "t")
    sim.push_frame(frame)
    return doc, frame, tracer


def test_append_child_rejects_the_root_the_parent_and_its_ancestors():
    doc, frame, tracer = _traced_document()
    div = doc.body.append_child(doc.create_element("div"))
    span = div.append_child(doc.create_element("span"))
    detached = doc.create_element("p")
    doc.dirty = False
    elapsed, events, shape = frame.elapsed, len(tracer), doc.serialize()
    assert events == 2  # the two appends above were traced
    for parent, child in (
        (div, div),
        (div, doc.body),
        (span, div),
        (span, doc.document_element),
        (detached, doc.document_element),
    ):
        with pytest.raises(SimulationError):
            parent.append_child(child)
    # HierarchyRequestError is raised before any cost, trace or mutation
    assert (frame.elapsed, len(tracer), doc.dirty) == (elapsed, events, False)
    assert doc.serialize() == shape
    assert doc.body.connected and doc.node_count() == 4
    assert not detached.children and doc.document_element.parent is None


def test_silent_insert_keeps_the_indexes_without_cost_trace_or_dirt():
    doc, frame, tracer = _traced_document()
    link = doc.create_element("a")
    doc.dirty = False
    elapsed, events = frame.elapsed, len(tracer)
    doc.body._insert(link)
    assert (frame.elapsed, len(tracer), doc.dirty) == (elapsed, events, False)
    assert link.parent is doc.body and link.connected
    assert doc.node_count() == 3 and list(doc.anchors) == [link]


def _forest(ops):
    """A document and every element built by ``ops``, ids as attributes.

    Each op creates an element and inserts it under an earlier element,
    in the tree or detached, or leaves it detached (``None``).
    """
    doc = Document(Simulator())
    elements = [doc.document_element, doc.body]
    for tag, parent in ops:
        element = doc.create_element(tag)
        element.attributes["id"] = str(len(elements))
        if parent is not None:
            elements[parent % len(elements)]._insert(element)
        elements.append(element)
    return doc, elements


def _forest_state(doc, elements):
    """Everything an insert may change, in comparable form."""
    return (
        doc.serialize(),
        doc.connected_count,
        [anchor.trace_id for anchor in doc.anchors],
        [
            (
                element.trace_id,
                element.connected,
                None if element.parent is None else element.parent.trace_id,
                [child.trace_id for child in element.children],
            )
            for element in elements
        ],
    )


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["a", "a", "div"]), st.none() | st.integers(0, 40)),
        max_size=16,
    ),
    parent=st.integers(0, 40),
    picks=st.lists(st.integers(1, 40), max_size=6),
)
def test_batch_insert_equals_one_by_one_inserts(ops, parent, picks):
    with capture() as tracer:
        batch_doc, batch = _forest(ops)
        single_doc, single = _forest(ops)
    assert _forest_state(batch_doc, batch) == _forest_state(single_doc, single)
    index = parent % len(batch)
    chosen = [pick % len(batch) for pick in picks]
    assume(not any(_hierarchy_error(batch[index], batch[i]) for i in chosen))
    events = len(tracer)

    batch[index]._insert(*[batch[i] for i in chosen])
    for i in chosen:
        single[index]._insert(single[i])
    assert len(tracer) == events  # silent
    assert _forest_state(batch_doc, batch) == _forest_state(single_doc, single)


def test_deep_trees_are_walked_without_recursion(doc):
    depth = 5_000
    node = doc.body
    for _ in range(depth):
        node = node.append_child(doc.create_element("div"))
    assert doc.node_count() == depth + 2
    assert len(doc.get_elements_by_tag("div")) == depth
    assert sum(1 for _ in doc.document_element.descendants()) == depth + 1
    assert doc.serialize() == (
        "<html><body>" + "<div>" * depth + "</div>" * depth + "</body></html>"
    )
    with pytest.raises(SimulationError):
        node.append_child(doc.body)
    top = doc.body.remove_child(doc.body.children[0])
    assert not node.connected and doc.node_count() == 2
    doc.body.append_child(top)
    assert node.connected and doc.node_count() == depth + 2


# ----------------------------------------------------------------------
# differential proof: maintained indexes == a full-walk recomputation
# ----------------------------------------------------------------------
VISITED = "https://visited.example/"


def _walk(root):
    """``root`` and its subtree in document order (test-local, recursive)."""
    yield root
    for child in root.children:
        yield from _walk(child)


def _reaches_root(element):
    """``connected`` by definition: the parent chain ends at the root."""
    while element.parent is not None:
        element = element.parent
    return element is element.document.document_element


def _hierarchy_error(parent, child):
    return child is child.document.document_element or any(
        node is parent for node in _walk(child)
    )


def _reference_serialize(element):
    """The recursive serialisation the iterative one must reproduce."""
    attrs = "".join(f' {n}="{v}"' for n, v in sorted(element.attributes.items()))
    inner = element.text + "".join(_reference_serialize(c) for c in element.children)
    return f"<{element.tag}{attrs}>{inner}</{element.tag}>"


def _reference_frame_cost(renderer):
    """The three-walk formula ``_frame_cost`` used before the indexes.

    Pure (mutates nothing).  One deliberate difference: the root's own
    pending paint counts, where the old walk started below the root.
    """
    document, costs = renderer.document, renderer.costs
    nodes = list(_walk(document.document_element))
    cost = costs.base_paint
    if document.dirty:
        cost += len(nodes) * (costs.style_per_node + costs.layout_per_node)
        for element in nodes:
            if element.tag == "a" and "href" in element.attributes:
                if renderer.visited_fn(element.attributes["href"]):
                    cost += costs.visited_style_extra
    return cost + sum(element.pending_paint_cost for element in nodes)


class DomIndexMachine(RuleBasedStateMachine):
    """Random tree mutations, checking every index after each step."""

    elements = Bundle("elements")

    @initialize(target=elements)
    def open_document(self):
        sim = Simulator()
        self.doc = Document(sim)
        loop = EventLoop(sim, "dom-indexes", task_dispatch_cost=0)
        self.renderer = Renderer(loop, self.doc, visited_fn=lambda href: href == VISITED)
        self.all = [self.doc.document_element, self.doc.body]
        return multiple(*self.all)

    @rule(target=elements, tag=st.sampled_from(["a", "a", "div", "span"]))
    def create(self, tag):
        element = self.doc.create_element(tag)
        self.all.append(element)
        return element

    @rule(parent=elements, child=elements)
    def append_child(self, parent, child):
        if _hierarchy_error(parent, child):
            old_parent = child.parent
            with pytest.raises(SimulationError):
                parent.append_child(child)
            assert child.parent is old_parent
        else:
            parent.append_child(child)
            assert child.parent is parent and parent.children[-1] is child

    @rule(parent=elements, child=elements)
    def silent_insert(self, parent, child):
        if not _hierarchy_error(parent, child):
            parent._insert(child)

    @rule(parent=elements, nodes=st.lists(elements, max_size=5))
    def silent_insert_many(self, parent, nodes):
        # nodes may have parents, in the tree or in detached subtrees, and
        # may sit inside an earlier node of the same batch
        if not any(_hierarchy_error(parent, node) for node in nodes):
            parent._insert(*nodes)
            if nodes:
                assert parent.children[-1] is nodes[-1]
            assert all(node.parent is parent for node in nodes)

    @rule(parent=elements, child=elements)
    def remove_child(self, parent, child):
        if child.parent is parent:
            parent.remove_child(child)
            assert child.parent is None and child not in parent.children
        else:
            with pytest.raises(SimulationError):
                parent.remove_child(child)

    @rule(element=elements, href=st.sampled_from([VISITED, "https://other.example/"]),
          raw=st.booleans())
    def write_href(self, element, href, raw):
        if raw:
            element.attributes["href"] = href
        else:
            element.set_attribute("href", href)

    @rule(element=elements)
    def drop_href(self, element):
        element.attributes.pop("href", None)

    @rule(element=elements, cost=st.integers(0, 3), add=st.booleans())
    def write_paint(self, element, cost, add):
        if add:
            element.pending_paint_cost += cost * 1_000
        else:
            element.pending_paint_cost = cost * 1_000

    @rule()
    def release(self):
        # Browser.close: the document is left valid and empty, so every
        # later rule (creates and appends included) keeps working on it
        self.doc.release()
        assert self.doc.document_element.children == []

    @rule(dirty=st.booleans())
    def frame(self, dirty):
        self.doc.dirty = dirty
        expected = _reference_frame_cost(self.renderer)
        before = {element: element.pending_paint_cost for element in self.all}
        assert self.renderer._frame_cost() == expected
        for element in self.all:
            connected = _reaches_root(element)
            assert element.pending_paint_cost == (0 if connected else before[element])
            if dirty and connected and element.tag == "a":
                if element.attributes.get("href") == VISITED:
                    assert element.matched_visited

    @invariant()
    def indexes_equal_a_full_walk(self):
        doc = self.doc
        tree = list(_walk(doc.document_element))
        assert doc.connected_count == doc.node_count() == len(tree)
        assert set(doc.anchors) == {element for element in tree if element.tag == "a"}
        assert set(doc.paint_pending) == {el for el in self.all if el.pending_paint_cost}
        for element in self.all:
            assert element.connected == _reaches_root(element)
            assert list(element.descendants()) == list(_walk(element))[1:]
            assert element.serialize() == _reference_serialize(element)


DomIndexMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestDomIndexes = DomIndexMachine.TestCase

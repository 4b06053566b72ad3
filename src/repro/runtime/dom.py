"""A small Document Object Model.

Implements exactly the DOM surface the paper's attacks and compatibility
experiments need:

* a tree of :class:`Element` nodes with attributes, styles and children;
* subresource loading (``<script src>``, ``<img src>``) that fires
  ``onload`` / ``onerror`` after network + parse/decode time — the channel
  the van Goethem script-parsing and image-decoding attacks measure;
* ``:visited`` link state consulted during style recalculation — the
  channel history sniffing measures;
* dirty-tracking feeding the renderer's per-frame style/layout/paint cost;
* indexes kept up to date by every tree mutation (connected flag and count,
  connected ``<a>`` anchors, elements with pending paint), so a render frame
  costs O(anchors + pending paints) rather than a walk of the tree;
* deterministic serialisation for the DOM-cosine-similarity compatibility
  test (paper §V-B2);
* :meth:`Document.release`, which cuts the tree's back-edges when its
  browser closes, so a dead tree is freed by reference counting.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..trace import state_access

#: Cost of one createElement call.
CREATE_ELEMENT_COST = 600
#: Cost of one appendChild call (tree mutation, invalidation).
APPEND_CHILD_COST = 900
#: Cost of one attribute read/write.
ATTRIBUTE_ACCESS_COST = 150


#: Shared empty defaults of the two containers an element allocates on
#: first write, so an element that never gets children or a style owns
#: neither.
_NO_CHILDREN: Tuple["Element", ...] = ()
_NO_STYLE: Mapping[str, str] = MappingProxyType({})


class Element:
    """One DOM element.

    A ``<a href>`` link is the element built most (history sniffing makes
    2,200 per trial), so an instance holds only what a link uses: the
    slots below.  ``children`` starts as the shared empty tuple and gets
    its own list on the first insert, so a leaf is one GC-tracked object.
    The fields most tags never write (``style``, ``text``, ``payload``,
    ``onload``/``onerror``, the pending paint cost) are class-level
    defaults; the first write stores them in the instance ``__dict__``,
    which only then is allocated.
    """

    __slots__ = (
        "trace_id", "document", "tag", "attributes", "parent", "children",
        "matched_visited", "_connected", "__dict__",
    )

    #: ``el.style``; :meth:`set_style` gives the element its own dict.
    style: Mapping[str, str] = _NO_STYLE
    text = ""
    onload: Optional[Callable[..., None]] = None
    onerror: Optional[Callable[..., None]] = None
    #: Arbitrary payload for simulated media/image elements.
    payload: Any = None
    _pending_paint_cost = 0

    def __init__(self, document: "Document", tag: str):
        # restarts per run, so captures stay byte-identical
        self.trace_id = document._next_id()
        self.document = document
        self.tag = tag.lower()
        self.attributes: Dict[str, str] = {}
        self.parent: Optional["Element"] = None
        self.children: Sequence["Element"] = _NO_CHILDREN
        #: Set on <a>/<link> elements by style recalc (history sniffing).
        self.matched_visited = False
        #: Maintained by :meth:`Document._set_connected`; read via ``connected``.
        self._connected = False

    @property
    def pending_paint_cost(self) -> int:
        """Pending paint effects (e.g. SVG filters), consumed per frame."""
        return self._pending_paint_cost

    @pending_paint_cost.setter
    def pending_paint_cost(self, cost: int) -> None:
        self._pending_paint_cost = cost
        if cost:
            self.document.paint_pending[self] = None
        else:
            self.document.paint_pending.pop(self, None)

    @property
    def trace_obj(self) -> str:
        """Run-deterministic object identity for state-access events."""
        return f"dom:{self.tag}#{self.trace_id}"

    def _trace_mutation(self, access: str) -> None:
        state_access(self.document.sim, self.trace_obj, "write", "dom", access=access)

    # ------------------------------------------------------------------
    # attributes / tree
    # ------------------------------------------------------------------
    def set_attribute(self, name: str, value: str) -> None:
        """``el.setAttribute(name, value)``; ``src`` starts a load."""
        self.document.sim.consume(ATTRIBUTE_ACCESS_COST)
        self._trace_mutation("set_attribute")
        self.attributes[name] = value
        self.document.mark_dirty()
        if name == "src" and self.connected:
            self.document.begin_resource_load(self)

    def get_attribute(self, name: str) -> Optional[str]:
        """``el.getAttribute(name)``."""
        self.document.sim.consume(ATTRIBUTE_ACCESS_COST)
        return self.attributes.get(name)

    def set_style(self, prop: str, value: str) -> None:
        """``el.style.prop = value``."""
        self.document.sim.consume(ATTRIBUTE_ACCESS_COST)
        self._trace_mutation("set_style")
        style = self.style
        if style is _NO_STYLE:
            style = self.style = {}
        style[prop] = value
        self.document.mark_dirty()

    def append_child(self, child: "Element") -> "Element":
        """``el.appendChild(child)``."""
        # HierarchyRequestError: the root stays the root, and a node cannot
        # go under itself (a leaf can only be its own ancestor: no walk)
        if (
            child is self
            or child is self.document.document_element
            or (child.children and self._has_ancestor(child))
        ):
            raise SimulationError("appendChild: child is the root, the parent or its ancestor")
        self.document.sim.consume(APPEND_CHILD_COST)
        self._trace_mutation("append_child")
        self._insert(child)
        self.document.mark_dirty()
        if child._connected and "src" in child.attributes:
            self.document.begin_resource_load(child)
        return child

    def _insert(self, *nodes: "Element") -> None:
        """Attach ``nodes`` last, in order, keeping the document's indexes exact.

        The one insert path: equal to inserting the nodes one at a time,
        with the subtrees that change state flipped in one
        :meth:`Document._set_connected` pass.  A node leaving another parent
        may sit in a subtree still waiting for that pass, so it flushes the
        pass first.  Silent: no cost, no trace event, no ``mark_dirty``.
        Public mutations add those around it; bulk page builders call it
        alone.
        """
        children = self.children
        if children is _NO_CHILDREN:
            children = self.children = []
        connected = self._connected
        flips: List[Element] = []
        for node in nodes:
            old_parent = node.parent
            if old_parent is not None:
                if flips:
                    self.document._set_connected(flips, connected)
                    flips = []
                old_parent.children.remove(node)
            node.parent = self
            children.append(node)
            if node._connected != connected:
                flips.append(node)
        if flips:
            self.document._set_connected(flips, connected)

    def _has_ancestor(self, node: "Element") -> bool:
        ancestor = self.parent
        while ancestor is not None:
            if ancestor is node:
                return True
            ancestor = ancestor.parent
        return False

    def remove_child(self, child: "Element") -> "Element":
        """``el.removeChild(child)``."""
        if child.parent is not self:
            raise SimulationError("removeChild: not a child")
        self.document.sim.consume(APPEND_CHILD_COST)
        self._trace_mutation("remove_child")
        self.children.remove(child)
        child.parent = None
        if child._connected:
            self.document._set_connected((child,), False)
        self.document.mark_dirty()
        return child

    @property
    def connected(self) -> bool:
        """True when the element is attached under the document root."""
        return self._connected

    # ------------------------------------------------------------------
    # traversal / serialisation
    # ------------------------------------------------------------------
    def descendants(self):
        """Depth-first, document-order iterator over the subtree (excluding self)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def serialize(self) -> str:
        """Deterministic HTML-ish serialisation (compat similarity test)."""
        parts: List[str] = []
        # Elements still to open, interleaved with the close tags they owe
        stack: List[Any] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            attrs = "".join(
                f' {name}="{value}"' for name, value in sorted(node.attributes.items())
            )
            parts.append(f"<{node.tag}{attrs}>{node.text}")
            stack.append(f"</{node.tag}>")
            stack.extend(reversed(node.children))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Element <{self.tag}> #{self.trace_id} children={len(self.children)}>"


class Document:
    """The per-page document.

    The page wires ``resource_loader`` (called with an element whose ``src``
    must be fetched) and the renderer observes :attr:`dirty`.  The renderer
    also reads the indexes that every tree mutation keeps exact:
    :attr:`connected_count`, :attr:`anchors` and :attr:`paint_pending`.
    """

    def __init__(self, sim):
        self.sim = sim
        #: The run's ``"dom"`` id stream, bound once (see :class:`Element`).
        self._next_id = sim.object_seq_stream("dom")
        #: The simulator's frame stack, so a create charges its frame directly.
        self._frames = sim._frames
        #: Number of connected elements (root included).
        self.connected_count = 0
        #: Every connected ``<a>``, with or without an ``href`` (ordered set).
        self.anchors: Dict[Element, None] = {}
        #: Elements whose ``pending_paint_cost`` is non-zero, connected or not.
        self.paint_pending: Dict[Element, None] = {}
        self.document_element = Element(self, "html")
        self._set_connected((self.document_element,), True)
        self.body = self.create_element("body")
        self.document_element._insert(self.body)
        self.dirty = True
        self.resource_loader: Optional[Callable[[Element], None]] = None
        #: onload handler for the document itself (page load event).
        self.onload: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def create_element(self, tag: str) -> Element:
        """``document.createElement(tag)``."""
        frames = self._frames
        if frames:
            frames[-1].consume(CREATE_ELEMENT_COST)
        return Element(self, tag)

    def get_elements_by_tag(self, tag: str) -> List[Element]:
        """All connected elements with the given tag, root included."""
        tag = tag.lower()
        root = self.document_element
        return [el for el in (root, *root.descendants()) if el.tag == tag]

    def _set_connected(self, roots: Sequence[Element], connected: bool) -> None:
        """Flip each root's subtree in or out of the tree and its indexes.

        Roots are walked in order, each subtree whole before the next, so
        ``anchors`` gets the order one call per root would give it.
        """
        anchors = self.anchors
        count = 0
        stack = list(reversed(roots))
        while stack:
            node = stack.pop()
            node._connected = connected
            count += 1
            if node.tag == "a":
                if connected:
                    anchors[node] = None
                else:
                    del anchors[node]
            if node.children:
                stack.extend(node.children)
        self.connected_count += count if connected else -count

    def release(self) -> None:
        """Tear the tree down to its bare root (``Browser.close``).

        Empties every ``children`` list below the root, so a dead tree is
        freed by reference counting rather than by the cyclic GC, and
        leaves a valid, empty document: every former node detached, no
        anchors, no pending paint, ``connected_count == 1``.  Only parents
        go on the walk's stack; a leaf just has its two fields reset.
        Silent: no cost, no trace event.
        """
        stack = [self.document_element]
        while stack:
            children = stack.pop().children
            for node in children:
                node.parent = None
                node._connected = False
                if node.children:
                    stack.append(node)
            children.clear()
        for element in self.paint_pending:
            element._pending_paint_cost = 0
        self.paint_pending.clear()
        self.anchors.clear()
        self.connected_count = 1

    def mark_dirty(self) -> None:
        """Invalidate style/layout (renderer picks this up next frame)."""
        self.dirty = True

    def begin_resource_load(self, element: Element) -> None:
        """Kick off the subresource load for an element with a ``src``."""
        if self.resource_loader is not None:
            self.resource_loader(element)

    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Number of connected elements (root included)."""
        return self.connected_count

    def serialize(self) -> str:
        """Serialise the whole tree."""
        return self.document_element.serialize()

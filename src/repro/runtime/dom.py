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

from typing import Any, Callable, Dict, List, Optional

from ..errors import SimulationError
from ..trace import state_access

#: Cost of one createElement call.
CREATE_ELEMENT_COST = 600
#: Cost of one appendChild call (tree mutation, invalidation).
APPEND_CHILD_COST = 900
#: Cost of one attribute read/write.
ATTRIBUTE_ACCESS_COST = 150


class Element:
    """One DOM element."""

    __slots__ = (
        "trace_id", "document", "tag", "attributes", "style", "children", "parent",
        "text", "onload", "onerror", "matched_visited", "payload",
        "_pending_paint_cost", "_connected",
    )

    def __init__(self, document: "Document", tag: str):
        # restarts per run, so captures stay byte-identical
        self.trace_id = document.sim.next_object_seq("dom")
        self.document = document
        self.tag = tag.lower()
        self.attributes: Dict[str, str] = {}
        self.style: Dict[str, str] = {}
        self.children: List["Element"] = []
        self.parent: Optional["Element"] = None
        self.text = ""
        self.onload: Optional[Callable[..., None]] = None
        self.onerror: Optional[Callable[..., None]] = None
        #: Set on <a>/<link> elements by style recalc (history sniffing).
        self.matched_visited = False
        #: Arbitrary payload for simulated media/image elements.
        self.payload: Any = None
        self._pending_paint_cost = 0
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
        self.style[prop] = value
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

    def _insert(self, child: "Element") -> None:
        """Attach ``child`` last, keeping the document's indexes exact.

        Silent: no cost, no trace event, no ``mark_dirty``.  Public
        mutations add those around it; bulk page builders call it alone.
        """
        old_parent = child.parent
        if old_parent is not None:
            old_parent.children.remove(child)
        child.parent = self
        self.children.append(child)
        if child._connected != self._connected:
            self.document._set_connected(child, self._connected)

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
            self.document._set_connected(child, False)
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
        stack = self.children[::-1]
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
        #: Number of connected elements (root included).
        self.connected_count = 0
        #: Every connected ``<a>``, with or without an ``href`` (ordered set).
        self.anchors: Dict[Element, None] = {}
        #: Elements whose ``pending_paint_cost`` is non-zero, connected or not.
        self.paint_pending: Dict[Element, None] = {}
        self.document_element = Element(self, "html")
        self._set_connected(self.document_element, True)
        self.body = self.create_element("body")
        self.document_element._insert(self.body)
        self.dirty = True
        self.resource_loader: Optional[Callable[[Element], None]] = None
        #: onload handler for the document itself (page load event).
        self.onload: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def create_element(self, tag: str) -> Element:
        """``document.createElement(tag)``."""
        self.sim.consume(CREATE_ELEMENT_COST)
        return Element(self, tag)

    def get_elements_by_tag(self, tag: str) -> List[Element]:
        """All connected elements with the given tag, root included."""
        tag = tag.lower()
        root = self.document_element
        return [el for el in (root, *root.descendants()) if el.tag == tag]

    def _set_connected(self, root: Element, connected: bool) -> None:
        """Flip ``root``'s subtree in or out of the tree and its indexes."""
        anchors = self.anchors
        count = 0
        stack = [root]
        while stack:
            node = stack.pop()
            node._connected = connected
            count += 1
            if node.tag == "a":
                if connected:
                    anchors[node] = None
                else:
                    del anchors[node]
            stack.extend(node.children)
        self.connected_count += count if connected else -count

    def release(self) -> None:
        """Tear the tree down to its bare root (``Browser.close``).

        Cuts every ``parent``/``children`` edge below the root, so a dead
        tree is freed by reference counting rather than by the cyclic GC,
        and leaves a valid, empty document: no anchors, no pending paint,
        ``connected_count == 1``.  Silent: no cost, no trace event.
        """
        root = self.document_element
        stack = root.children[:]
        root.children.clear()
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            node.children.clear()
            node.parent = None
            node._connected = False
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

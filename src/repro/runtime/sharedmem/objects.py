"""Structured shared objects: SharedDict and SharedArray.

Each wraps one :class:`~repro.runtime.sharedmem.heap.SharedCell` whose
payload is a plain dict/list.  Values may be other shared objects
(stored by reference and refcounted); ``get`` returns such a value as a
**borrowed** reference — the caller must ``adopt`` it through its
:class:`~repro.runtime.sharedmem.api.SharedMemAPI` to root it, exactly
the two-step pattern real SAB-backed object libraries expose (and the
window the GC-vs-mutator scenario races in).

Every operation is one :meth:`SharedHeap.access` call: policy
interposition, cost, ``state.access`` instant, liveness check — an
operation on a swept cell raises
:class:`~repro.errors.UseAfterCollectError`.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .heap import ARRAY_OP_COST, DICT_OP_COST, SharedCell, SharedHeap


class SharedObject:
    """Base wrapper: one cell plus the owning heap."""

    __slots__ = ("heap", "cell")

    def __init__(self, heap: SharedHeap, cell: SharedCell):
        self.heap = heap
        self.cell = cell

    @property
    def obj_id(self) -> str:
        """Run-deterministic trace identity."""
        return self.cell.obj_id

    def _retain_value(self, value: Any) -> None:
        if isinstance(value, SharedObject):
            self.heap.retain(value.cell)

    def _release_value(self, value: Any) -> None:
        if isinstance(value, SharedObject):
            self.heap.release(value.cell)


class SharedDict(SharedObject):
    """A shared string-keyed dictionary."""

    __slots__ = ()

    @classmethod
    def create(cls, heap: SharedHeap, label: str = "dict") -> "SharedDict":
        return cls(heap, heap.alloc_cell("shm-dict", label, payload={}))

    def get(self, key: str) -> Any:
        """Read one slot (shared-object values are returned *borrowed*)."""
        self.heap.access(self.cell, "read", "get", DICT_OP_COST)
        return self.cell.payload.get(key)

    def set(self, key: str, value: Any) -> None:
        """Write one slot (refcounts shared-object values)."""
        self.heap.access(self.cell, "write", "set", DICT_OP_COST)
        payload = self.cell.payload
        old = payload.get(key)
        self._retain_value(value)
        payload[key] = value
        if old is not value:
            self._release_value(old)

    def delete(self, key: str) -> bool:
        """Remove one slot, dropping its reference."""
        self.heap.access(self.cell, "write", "delete", DICT_OP_COST)
        payload = self.cell.payload
        if key not in payload:
            return False
        self._release_value(payload.pop(key))
        return True

    def has(self, key: str) -> bool:
        """Membership test (a read access)."""
        self.heap.access(self.cell, "read", "has", DICT_OP_COST)
        return key in self.cell.payload

    def keys(self) -> List[str]:
        """Snapshot of the keys (a read access)."""
        self.heap.access(self.cell, "read", "keys", DICT_OP_COST)
        return list(self.cell.payload.keys())

    @property
    def size(self) -> int:
        """Number of entries (a read access)."""
        self.heap.access(self.cell, "read", "size", DICT_OP_COST)
        return len(self.cell.payload)


class SharedArray(SharedObject):
    """A shared growable array."""

    __slots__ = ()

    @classmethod
    def create(cls, heap: SharedHeap, label: str = "array") -> "SharedArray":
        return cls(heap, heap.alloc_cell("shm-array", label, payload=[]))

    def get(self, index: int) -> Any:
        """Read one element (borrowed for shared-object values)."""
        self.heap.access(self.cell, "read", "get", ARRAY_OP_COST)
        payload = self.cell.payload
        if 0 <= index < len(payload):
            return payload[index]
        return None

    def set(self, index: int, value: Any) -> None:
        """Write one element in place."""
        self.heap.access(self.cell, "write", "set", ARRAY_OP_COST)
        payload = self.cell.payload
        if not 0 <= index < len(payload):
            raise IndexError(f"{self.obj_id}: index {index} out of range")
        old = payload[index]
        self._retain_value(value)
        payload[index] = value
        if old is not value:
            self._release_value(old)

    def push(self, value: Any) -> int:
        """Append; returns the new length."""
        self.heap.access(self.cell, "write", "push", ARRAY_OP_COST)
        self._retain_value(value)
        self.cell.payload.append(value)
        return len(self.cell.payload)

    def pop(self) -> Optional[Any]:
        """Remove and return the last element (borrowed), or None."""
        self.heap.access(self.cell, "write", "pop", ARRAY_OP_COST)
        payload = self.cell.payload
        if not payload:
            return None
        value = payload.pop()
        self._release_value(value)
        return value

    @property
    def size(self) -> int:
        """Length (a read access)."""
        self.heap.access(self.cell, "read", "size", ARRAY_OP_COST)
        return len(self.cell.payload)

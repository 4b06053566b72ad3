"""A fixed pure-Python job that measures how fast the host runs today.

The benchmark's host is shared: over minutes its speed drifts by 10-60%
while the code under test stays the same.  Every pass times this job
just before and just after its workload, and ``run.py`` scales the
pass's times by ``NOMINAL_S / measured``, which reports them in seconds
of a host that runs this job in ``NOMINAL_S``.

The job mixes what the repository's hot paths do -- a heap-ordered
event queue dispatching closures, a recursive generator walk over a
tree of slotted objects, string formatting into dicts, integer hash
mixing and a JSON round trip -- and imports nothing from ``repro``, so
a change to the program under test cannot change the yardstick.
"""

from __future__ import annotations

import heapq
import json
import time

#: Seconds one :func:`job` took on the reference host (2-core x86-64
#: VM, Python 3.11), so normalised figures stay near raw ones there.
NOMINAL_S = 0.045

_MASK64 = (1 << 64) - 1


class _Node:
    __slots__ = ("tag", "children", "attrs")

    def __init__(self, tag: str):
        self.tag = tag
        self.children = []
        self.attrs = {}

    def walk(self):
        for child in self.children:
            yield child
            yield from child.walk()


def _events(count: int) -> int:
    queue = []
    seq = 0
    fired = [0]

    def fire(n):
        fired[0] += n

    for i in range(count):
        seq += 1
        heapq.heappush(queue, ((i * 7919) % 1000, seq, fire, i & 7))
    while queue:
        _t, _s, fn, arg = heapq.heappop(queue)
        fn(arg)
    return fired[0]


def _tree(width: int, depth: int, walks: int) -> int:
    root = _Node("html")
    frontier = [root]
    for level in range(depth):
        nxt = []
        for parent in frontier:
            for i in range(width):
                child = _Node("a" if i % 3 == 0 else "div")
                child.attrs["id"] = f"n{level}-{i}"
                parent.children.append(child)
                nxt.append(child)
        frontier = nxt
    links = 0
    for _ in range(walks):
        for node in root.walk():
            if node.tag == "a" and "id" in node.attrs:
                links += 1
    return links


def _mix(count: int) -> int:
    acc = 0
    for i in range(count):
        h = (i * 0x9E3779B97F4A7C15) & _MASK64
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & _MASK64
        acc ^= h >> 11
    return acc


def _records(count: int) -> int:
    rows = [{"rank": i, "label": f"pop:visit:{i}:cfg", "load_ms": i * 0.25} for i in range(count)]
    return len(json.loads(json.dumps(rows)))


def job() -> float:
    """Run the fixed job once; returns its wall time in seconds."""
    start = time.perf_counter()
    _events(20_000)
    _tree(4, 5, 12)
    _mix(40_000)
    _records(4_000)
    return time.perf_counter() - start

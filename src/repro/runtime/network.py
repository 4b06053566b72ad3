"""Simulated network stack.

Hosts named resources (size, type, origin) and services requests with a
latency/bandwidth model:

    completion = base_latency + jitter + size / bandwidth (+ server time)

An HTTP cache makes repeat fetches fast — the timing difference the cache
attack measures.  Requests are cancellable (fetch abort) and deliver their
completion as a NETWORK task on the requesting event loop.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..errors import SimulationError
from .eventloop import EventLoop
from .origin import URL
from .simtime import MS, ms, us
from .task import TaskSource


class Resource:
    """One hosted resource."""

    __slots__ = ("url", "size_bytes", "content_type", "server_time_ns", "body", "redirect_to")

    def __init__(
        self,
        url: URL,
        size_bytes: int,
        content_type: str = "application/octet-stream",
        server_time_ns: int = 0,
        body: object = None,
        redirect_to: Optional[URL] = None,
    ):
        self.url = url
        self.size_bytes = size_bytes
        self.content_type = content_type
        self.server_time_ns = server_time_ns
        self.body = body
        self.redirect_to = redirect_to


class NetworkResponse:
    """What a completed request delivers."""

    __slots__ = ("url", "status", "resource", "from_cache", "final_url")

    def __init__(
        self,
        url: URL,
        status: int,
        resource: Optional[Resource],
        from_cache: bool,
        final_url: Optional[URL] = None,
    ):
        self.url = url
        self.status = status
        self.resource = resource
        self.from_cache = from_cache
        self.final_url = final_url or url

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300


class NetworkRequest:
    """In-flight request handle (cancellable)."""

    def __init__(self, url: URL, task):
        self.url = url
        self._task = task
        self.cancelled = False
        self.completed = False
        #: True when a fault window swallowed this request's response.
        self.dropped = False

    def cancel(self) -> None:
        """Abort the request; its completion task will not run."""
        if self.completed:
            return
        self.cancelled = True
        if self._task is not None:
            self._task.cancel()


class NetworkFault:
    """One declarative fault window on the simulated network.

    Applies to requests *issued* while ``from_ns <= now < until_ns`` whose
    URL path contains ``path_contains`` (empty matches everything).
    ``kind`` is ``"latency"`` (adds ``extra_ns`` to the completion delay)
    or ``"drop"`` (the response never arrives — the request stays in
    flight forever, like a silently blackholed connection).
    """

    __slots__ = ("kind", "from_ns", "until_ns", "extra_ns", "path_contains")

    def __init__(
        self,
        kind: str,
        from_ns: int,
        until_ns: int,
        extra_ns: int = 0,
        path_contains: str = "",
    ):
        if kind not in ("latency", "drop"):
            raise SimulationError(f"unknown network fault kind {kind!r}")
        self.kind = kind
        self.from_ns = from_ns
        self.until_ns = until_ns
        self.extra_ns = extra_ns
        self.path_contains = path_contains

    def matches(self, now: int, url: URL) -> bool:
        """Does this window apply to a request issued now for ``url``?"""
        if not (self.from_ns <= now < self.until_ns):
            return False
        return self.path_contains in url.path


class SimNetwork:
    """The network + HTTP cache shared by all threads of a browser."""

    def __init__(
        self,
        rng: random.Random,
        base_latency_ns: int = ms(8),
        jitter_ns: int = ms(2),
        bandwidth_bytes_per_ms: int = 1_200,  # ~9.5 Mbit/s ADSL, paper §V-A
        cache_latency_ns: int = us(200),
    ):
        self.rng = rng
        self.base_latency_ns = base_latency_ns
        self.jitter_ns = jitter_ns
        self.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms
        self.cache_latency_ns = cache_latency_ns
        self._resources: Dict[str, Resource] = {}
        self._cache: Dict[str, bool] = {}
        self.requests_dropped = 0
        #: Declarative fault windows (see :class:`NetworkFault`); fault
        #: plans append here via the browser interceptor hook.
        self.faults: List[NetworkFault] = []
        #: Requests issued but not yet completed/cancelled/dropped —
        #: the population a forced-abort fault picks from.
        self.inflight: List[NetworkRequest] = []

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------
    def host(self, resource: Resource) -> Resource:
        """Register a resource at its URL."""
        self._resources[resource.url.serialize()] = resource
        return resource

    def host_simple(
        self,
        url: URL,
        size_bytes: int,
        content_type: str = "text/plain",
        server_time_ns: int = 0,
        body: object = None,
    ) -> Resource:
        """Convenience: build and host a resource."""
        return self.host(Resource(url, size_bytes, content_type, server_time_ns, body))

    def lookup(self, url: URL) -> Optional[Resource]:
        """Find the hosted resource for ``url`` (no side effects)."""
        return self._resources.get(url.serialize())

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def is_cached(self, url: URL) -> bool:
        """True if ``url`` is in the HTTP cache."""
        return self._cache.get(url.serialize(), False)

    def flush_cache(self, url: Optional[URL] = None) -> None:
        """Evict one URL (or everything) from the cache."""
        if url is None:
            self._cache.clear()
        else:
            self._cache.pop(url.serialize(), None)

    def prime_cache(self, url: URL) -> None:
        """Mark ``url`` as cached without a request."""
        self._cache[url.serialize()] = True

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def transfer_time(self, size_bytes: int) -> int:
        """Pure bandwidth delay for a payload."""
        if self.bandwidth_bytes_per_ms <= 0:
            raise SimulationError("bandwidth must be positive")
        return int(size_bytes / self.bandwidth_bytes_per_ms * MS)

    def request(
        self,
        loop: EventLoop,
        url: URL,
        on_complete: Callable[[NetworkResponse], None],
        use_cache: bool = True,
    ) -> NetworkRequest:
        """Issue a request; ``on_complete`` runs as a NETWORK task."""
        resource = self._resources.get(url.serialize())
        delay = self._completion_delay(url, resource, use_cache)
        from_cache = use_cache and self.is_cached(url) and resource is not None

        if resource is not None and resource.redirect_to is not None:
            response = NetworkResponse(
                url, 200, resource, from_cache, final_url=resource.redirect_to
            )
        elif resource is not None:
            response = NetworkResponse(url, 200, resource, from_cache)
            if use_cache:
                self._cache[url.serialize()] = True
        else:
            response = NetworkResponse(url, 404, None, False)

        request = NetworkRequest(url, None)
        now = loop.sim.now
        for fault in self.faults:
            if fault.kind == "latency" and fault.matches(now, url):
                delay += fault.extra_ns
                if loop.sim.tracer.enabled:
                    loop.sim.tracer.metrics.counter("network.faults.latency").inc()

        if any(f.kind == "drop" and f.matches(now, url) for f in self.faults):
            # blackholed: no completion task is ever posted, the request
            # simply stays pending (abort still works on it)
            request.dropped = True
            self.requests_dropped += 1
            self.inflight.append(request)
            tracer = loop.sim.tracer
            if tracer.enabled:
                tracer.instant(
                    loop.sim.trace_pid,
                    loop.sim.trace_context,
                    "fault.net-drop",
                    now,
                    cat="fault",
                    args={"url": url.serialize()},
                )
                tracer.metrics.counter("network.faults.dropped").inc()
            return request

        def deliver() -> None:
            request.completed = True
            if request in self.inflight:
                self.inflight.remove(request)
            on_complete(response)

        task = loop.post(
            deliver,
            delay=delay,
            source=TaskSource.NETWORK,
            label=f"net:{url.path}",
        )
        request._task = task
        self.inflight.append(request)
        return request

    def abort_inflight(self, path_contains: str = "") -> int:
        """Force-abort matching in-flight requests (fault injection).

        Cancels every pending request whose path contains
        ``path_contains`` — the server resetting the connection mid
        transfer.  Returns the number of requests aborted.
        """
        aborted = 0
        for request in list(self.inflight):
            if request.completed or request.cancelled:
                self.inflight.remove(request)
                continue
            if path_contains in request.url.path:
                request.cancel()
                self.inflight.remove(request)
                aborted += 1
        return aborted

    def _completion_delay(self, url: URL, resource: Optional[Resource], use_cache: bool) -> int:
        if use_cache and resource is not None and self.is_cached(url):
            return self.cache_latency_ns
        jitter = self.rng.randint(0, self.jitter_ns) if self.jitter_ns > 0 else 0
        delay = self.base_latency_ns + jitter
        if resource is not None:
            delay += self.transfer_time(resource.size_bytes) + resource.server_time_ns
        return delay

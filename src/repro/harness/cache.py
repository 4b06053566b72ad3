"""Content-addressed on-disk cache for experiment cell results.

Every experiment cell in this reproduction — a Table I ``(attack,
defense, seed)`` run, a Figure 2 size point, an Alexa site visit, a
population block — is a pure function of its parameters and of the code
that computes it.  Virtual time makes each run bit-for-bit reproducible
(the DeterFox argument), so a cached result is exactly as good as a fresh
one, and a warm rerun of a full matrix can skip every cell.

Keying
------

A cell's cache key is the SHA-256 of a canonical JSON document::

    {"kind": <cell kind>, "params": {...}, "code": <code fingerprint>}

where the **code fingerprint** hashes every ``.py`` file under
``src/repro``.  Changing any source file — an attack, a defense, the
scheduler — invalidates the whole cache; changing only a seed or a sweep
parameter invalidates only the affected cells.  Payloads are stored as
JSON, and the engine normalises computed payloads through a JSON
round-trip before returning them, so a cache hit is byte-identical to the
computation it replaced.

Entries are written atomically (temp file + ``os.replace``), so a cache
directory shared between concurrent runs never exposes a torn entry; a
corrupt or unreadable entry is treated as a miss and recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from typing import Any, Dict, Optional

from ..trace import current_tracer

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-jskernel``."""
    override = os.environ.get(CACHE_DIR_ENV, "")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-jskernel")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``.py`` source file in the ``repro`` package.

    Files are walked in sorted relative-path order and hashed as
    ``path NUL contents NUL`` so renames and content edits both change
    the digest.  Cached per process — the source tree does not change
    under a running experiment.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    hasher = hashlib.sha256()
    sources = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if filename.endswith(".py"):
                full = os.path.join(dirpath, filename)
                sources.append((os.path.relpath(full, package_root), full))
    for relpath, full in sorted(sources):
        hasher.update(relpath.encode("utf-8"))
        hasher.update(b"\0")
        with open(full, "rb") as handle:
            hasher.update(handle.read())
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]


class ResultCache:
    """Directory of content-addressed cell results.

    The cache tracks its own traffic: :attr:`hits`, :attr:`misses` and
    :attr:`stores` count :meth:`get`/:meth:`put` outcomes, so harness
    callers (and tests) can assert "a warm rerun recomputed zero cells".
    """

    def __init__(self, root: Optional[str] = None):
        self.root = str(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def key(self, kind: str, params: Dict[str, Any]) -> str:
        """Content address of one cell (kind + params + code fingerprint)."""
        blob = json.dumps(
            {"kind": kind, "params": params, "code": code_fingerprint()},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path(self, key: str) -> str:
        """On-disk location of one entry (two-level fan-out)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored entry for ``key``, or ``None`` on a miss.

        Any read or decode failure counts as a miss: the engine simply
        recomputes and overwrites the entry.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self._count("misses")
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            self._count("misses")
            return None
        self._count("hits")
        return entry

    def put(self, key: str, kind: str, params: Dict[str, Any], payload: Any) -> None:
        """Store one computed payload atomically."""
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"kind": kind, "params": params, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._count("stores")

    def _count(self, event: str) -> None:
        """Bump one traffic counter, mirrored into the ambient metrics.

        With a capture active, ``--metrics`` output then reports cache
        traffic (``cache.hits`` / ``cache.misses`` / ``cache.stores``)
        alongside the runtime's own counters.
        """
        setattr(self, event, getattr(self, event) + 1)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter(f"cache.{event}").inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ResultCache {self.root!r} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}>"
        )


def as_cache(cache) -> Optional[ResultCache]:
    """Normalise the harness-level ``cache=`` argument.

    ``None``/``False`` → no cache; ``True`` → cache at the default
    location; a string/path → cache rooted there; a :class:`ResultCache`
    instance → itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(str(cache))


__all__ = [
    "CACHE_DIR_ENV",
    "ResultCache",
    "as_cache",
    "code_fingerprint",
    "default_cache_dir",
]

"""Seeded randomness service.

Every source of randomness in the simulation — network latency jitter,
Fuzzyfox pause tasks, workload generation — draws from a :class:`RngService`
so that a single integer seed makes an entire experiment reproducible.

Named streams keep subsystems independent: adding one extra draw to the
network stream must not perturb the Fuzzyfox stream, otherwise defense
comparisons would not be paired.

Stream seeds come from :func:`hash_seed`, a 64-bit FNV-1a over the UTF-8
bytes of a label.  :func:`hash_parts` computes the same value for a label
given in pieces, applying each fixed piece in one table step, for hot
callers whose labels are fixed text around a few numbers.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class RngService:
    """A family of independent, named, seeded random streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        The per-stream seed is derived from the service seed and the stream
        name, so streams are stable across runs and independent of the order
        in which they are first requested.
        """
        rng = self._streams.get(name)
        if rng is None:
            derived = hash_seed(self.seed, name)
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng

    def fork(self, salt: str) -> "RngService":
        """Derive an independent service (used for per-trial isolation)."""
        return RngService(hash_seed(self.seed, salt))


def hash_seed(seed: int, name: str) -> int:
    """Stable (cross-process) seed derivation.

    Python's builtin ``hash`` on strings is salted per process, so we use a
    small FNV-1a instead.  One byte per loop step: this is the reference
    :func:`hash_parts` is tested against.
    """
    acc = 0xCBF29CE484222325 ^ (seed & 0xFFFFFFFFFFFFFFFF)
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


#: ``text -> (P**n mod 2**64, D)`` for :func:`hash_parts`, ``n`` the
#: text's UTF-8 length and ``D`` its 256-entry table.  Cleared when full.
_STEPS: Dict[str, Tuple[int, memoryview]] = {}
_STEPS_LIMIT = 64


def _step(text: str) -> Tuple[int, memoryview]:
    """The one-step form of FNV-1a over ``text``.

    The xor with a byte changes only the low 8 bits of the accumulator,
    and the low 8 bits of a product depend only on the low 8 bits of its
    factors, so over ``n`` bytes ``fnv(acc) == acc * P**n + D[acc & 0xFF]``
    (mod 2**64) with ``D[lo] = fnv(lo) - lo * P**n``.
    """
    entry = _STEPS.get(text)
    if entry is None:
        data = text.encode("utf-8")
        scale = pow(_FNV_PRIME, len(data), 1 << 64)
        # 256 unboxed uint64s; a memoryview, not an array.array, so no
        # extension module is loaded for it (~0.1 MB of RSS)
        table = memoryview(bytearray(8 * 256)).cast("Q")
        for lo in range(256):
            acc = lo
            for byte in data:
                acc ^= byte
                acc = (acc * _FNV_PRIME) & _MASK64
            table[lo] = (acc - lo * scale) & _MASK64
        if len(_STEPS) >= _STEPS_LIMIT:
            _STEPS.clear()
        entry = _STEPS[text] = (scale, table)
    return entry


def hash_parts(seed: int, *parts: str) -> int:
    """``hash_seed(seed, "".join(parts))``, faster for repeated fixed text.

    Parts at even positions are fixed text, each applied in one step
    through its memoized table (see :func:`_step`); parts at odd
    positions vary per call (the numbers in a label) and go through the
    byte loop.
    """
    acc = _FNV_OFFSET ^ (seed & _MASK64)
    steps = _STEPS
    fixed = True
    for part in parts:
        if fixed:
            scale, table = steps.get(part) or _step(part)
            acc = (acc * scale + table[acc & 0xFF]) & _MASK64
        else:
            for byte in part.encode("utf-8"):
                acc ^= byte
                acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        fixed = not fixed
    return acc

"""Deterministic random-stream derivation.

Every stochastic component draws from its own ``random.Random`` instance
derived from an integer seed plus a string label. CPython seeds string
values through SHA-512, so the streams are stable across platforms and
interpreter runs, and adding draws to one labeled stream never shifts
another.
"""

from __future__ import annotations

import hashlib
import random


def substream(seed: int, label: str) -> random.Random:
    """Return an independent generator for (seed, label)."""
    return random.Random(f"{seed}:{label}")


def randbelow(getrandbits, n: int) -> int:
    """Uniform index in ``range(n)`` for ``n >= 1``, drawn exactly as
    ``random.Random.randrange(n)`` draws it: the rejection loop over
    ``getrandbits(n.bit_length())``, which consumes draws even for
    ``n == 1``. Takes the bound ``getrandbits`` method so that hot loops
    skip ``randrange``'s argument checks."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit integer seed from a sequence of identifying parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")

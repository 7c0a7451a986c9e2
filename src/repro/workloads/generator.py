"""Deterministic key and query-stream generators."""

from __future__ import annotations

import random
from typing import List, Sequence


def make_keys(count: int, length: int, *, seed: int = 1234) -> List[bytes]:
    """``count`` distinct random byte keys of exactly ``length`` bytes."""
    rng = random.Random(seed)
    keys = set()
    out: List[bytes] = []
    while len(out) < count:
        key = bytes(rng.getrandbits(8) for _ in range(length))
        if key not in keys:
            keys.add(key)
            out.append(key)
    return out


#: Skew of :func:`zipf_indices`' Zipf-like distribution.
ZIPF_ALPHA = 0.99


def zipf_indices(count: int, n: int, *, seed: int = 99) -> List[int]:
    """``count`` indices in [0, n) drawn from a Zipf-like distribution.

    Matches the skew of real query streams (flow tables, KV caches) without
    scipy: inverse-CDF sampling over precomputed harmonic weights.
    """
    if n <= 0:
        raise ValueError("population must be positive")
    rng = random.Random(seed)
    weights = [1.0 / ((i + 1) ** ZIPF_ALPHA) for i in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    out = []
    for _ in range(count):
        u = rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        out.append(lo)
    return out


def pick_queries(
    keys: Sequence[bytes],
    count: int,
    *,
    miss_ratio: float = 0.0,
    key_length: int = 16,
    zipf: bool = False,
    seed: int = 7,
) -> List[bytes]:
    """A query stream over ``keys`` with optional misses and skew."""
    rng = random.Random(seed)
    if zipf:
        order = zipf_indices(count, len(keys), seed=seed)
        stream = [keys[i] for i in order]
    else:
        stream = [keys[rng.randrange(len(keys))] for _ in range(count)]
    n_miss = int(count * miss_ratio)
    for i in rng.sample(range(count), n_miss) if n_miss else []:
        stream[i] = bytes(rng.getrandbits(8) for _ in range(key_length))
    return stream

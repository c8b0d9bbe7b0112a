"""Square-full (powerful) numbers and relatives.

Every square-full m factors uniquely as m = a^2 b^3 with b square-free; the
ascending enumeration merges the arithmetic streams {a^2 b^3 : a >= 1}, one per
admissible b, through a heap. The prime-powerful subset {q^2 r^3 : q, r prime}
keeps q = r, so fifth powers of primes are members.

The walk histograms h[k], the number of a family's members m <= x with
m = k mod p, visit the members themselves in one numpy pass; they use neither
Mobius inversion nor periodicity mod p, so they check the routes that do.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import arith

__all__ = [
    "CanonicalPair",
    "is_squarefull",
    "canonical_decompose",
    "enumerate_squarefull",
    "squarefull_stream",
    "squarefull_count",
    "squarefull_runs",
    "squarefree_table",
    "enumerate_prime_powerful",
    "add_runs",
    *("squarefree_walk", "squarefull_walk", "prime_powerful_walk"),
]


@dataclass(frozen=True)
class CanonicalPair:
    """m = a^2 b^3, b square-free."""

    a: int
    b: int

    @property
    def value(self) -> int:
        return self.a * self.a * self.b**3


def is_squarefull(n: int) -> bool:
    """True iff every prime dividing n divides it at least twice. n=1 counts."""
    if n < 1:
        raise ValueError("need n >= 1")
    return all(e >= 2 for _, e in arith.factorize(n).factors)


def canonical_decompose(n: int) -> CanonicalPair:
    a, b = 1, 1
    for p, e in arith.factorize(n).factors:
        if e < 2:
            raise ValueError(f"{n} is not square-full")
        if e % 2:
            b *= p
            a *= p ** ((e - 3) // 2)
        else:
            a *= p ** (e // 2)
    return CanonicalPair(a, b)


def squarefree_table(x: int) -> np.ndarray:
    """Boolean table t[m] = mu^2(m) for 0 <= m <= x."""
    if x < 1:
        raise ValueError("need x >= 1")
    t = np.ones(x + 1, dtype=bool)
    t[0] = False
    if x >= 4:
        for q in arith.sieve_primes(math.isqrt(x)):
            t[q * q :: q * q] = False
    return t


def enumerate_squarefull(x: int) -> Iterator[int]:
    """Square-full numbers <= x, ascending. Heap-merged per-b streams."""
    if x < 1:
        raise ValueError("need x >= 1")
    bmax = arith.icbrt(x)
    sf = squarefree_table(bmax) if bmax >= 1 else None
    heap = [(b * b * b, 1, b) for b in range(1, bmax + 1) if sf[b]]
    heapq.heapify(heap)
    while heap:
        v, a, b = heapq.heappop(heap)
        nxt = (a + 1) * (a + 1) * b * b * b
        if nxt <= x:
            heapq.heappush(heap, (nxt, a + 1, b))
        yield v


def squarefull_stream() -> Iterator[int]:
    """Unbounded ascending square-full stream; new b streams enter when their
    first element b^3 surfaces."""

    def next_squarefree(b: int) -> int:
        b += 1
        while any(b % (d * d) == 0 for d in range(2, math.isqrt(b) + 1)):
            b += 1
        return b

    heap = [(1, 1, 1)]
    b_next = 2
    while True:
        v, a, b = heapq.heappop(heap)
        if a == 1:
            heapq.heappush(heap, (b_next**3, 1, b_next))
            b_next = next_squarefree(b_next)
        heapq.heappush(heap, ((a + 1) * (a + 1) * b * b * b, a + 1, b))
        yield v


def squarefull_runs(x: int) -> tuple[np.ndarray, np.ndarray]:
    """(b, A): every square-free b <= x^(1/3) and A[i] = isqrt(x // b[i]^3),
    the number of square-full a^2 b[i]^3 <= x."""
    if x < 1:
        raise ValueError("need x >= 1")
    b = np.flatnonzero(squarefree_table(arith.icbrt(x)))
    return b, np.array([math.isqrt(x // int(v) ** 3) for v in b], dtype=np.int64)


def squarefull_count(x: int) -> int:
    """|{square-full m <= x}| via the a^2 b^3 bijection, no enumeration."""
    return int(squarefull_runs(x)[1].sum())


def enumerate_prime_powerful(x: int) -> list[int]:
    """Ascending {q^2 r^3 <= x : q, r prime}; q = r admitted (fifth powers)."""
    if x < 1:
        raise ValueError("need x >= 1")
    out = []
    rmax = arith.icbrt(x)
    if rmax < 2:
        return out
    primes = arith.sieve_primes(max(rmax, math.isqrt(x // 8)))
    for r in primes:
        r = int(r)
        cube = r * r * r
        if cube > x:
            break
        qmax = math.isqrt(x // cube)
        for q in primes:
            q = int(q)
            if q > qmax:
                break
            out.append(q * q * cube)
    out.sort()
    return out


_RUN_CHUNK = 1 << 20  # entries per vectorised batch of add_runs


def add_runs(h: np.ndarray, power: int, steps, counts, weights) -> None:
    """h[k^power * step mod p] += weight for k in [1, count], for each
    (step, count, weight), p = len(h), in batches of about _RUN_CHUNK
    entries; k^power must fit in int64 and every step be below p."""
    p = len(h)
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _RUN_CHUNK, "right")))
        c = counts[lo:hi]
        k = np.arange(1, int(c.sum()) + 1, dtype=np.int64) - np.repeat(np.cumsum(c) - c, c)
        res = k**power % p * np.repeat(steps[lo:hi], c) % p
        h += np.bincount(res, weights=np.repeat(weights[lo:hi], c), minlength=p).astype(np.int64)
        lo = hi


def squarefree_walk(p: int, x: int) -> np.ndarray:
    """h[k] = |{square-free m <= x : m = k mod p}|: squarefree_table(x) as
    rows of length p, summed down the columns."""
    t = squarefree_table(x).view(np.uint8)
    rows = len(t) // p
    h = t[: rows * p].reshape(rows, p).sum(axis=0, dtype=np.int64)
    h[: len(t) - rows * p] += t[rows * p :]
    return h


def squarefull_walk(p: int, x: int) -> np.ndarray:
    """h[k] = |{square-full m <= x : m = k mod p}|: m = a^2 b^3 for every
    square-free b and a <= isqrt(x // b^3), as runs over a."""
    b, big_a = squarefull_runs(x)
    h = np.zeros(p, dtype=np.int64)
    add_runs(h, 2, b**3 % p, big_a, np.ones(len(b), dtype=np.int64))
    return h


def prime_powerful_walk(p: int, x: int) -> np.ndarray:
    """h[k] = |{m = q^2 r^3 <= x : q, r prime, m = k mod p}|."""
    return np.bincount(np.array(enumerate_prime_powerful(x), dtype=np.int64) % p, minlength=p)

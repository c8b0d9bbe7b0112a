"""Square-full (powerful) numbers and relatives.

Every square-full m factors uniquely as m = a^2 b^3 with b square-free; the
ascending enumeration merges the arithmetic streams {a^2 b^3 : a >= 1}, one per
admissible b, through a heap. The prime-powerful subset {q^2 r^3 : q, r prime}
keeps q = r, so fifth powers of primes are members.
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
    "squarefree_table",
    "enumerate_prime_powerful",
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
        while True:
            b += 1
            d = 2
            while d * d <= b:
                if b % (d * d) == 0:
                    break
                d += 1
            else:
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


def squarefull_count(x: int) -> int:
    """|{square-full m <= x}| via the a^2 b^3 bijection, no enumeration."""
    if x < 1:
        raise ValueError("need x >= 1")
    bmax = arith.icbrt(x)
    sf = squarefree_table(bmax)
    return sum(math.isqrt(x // (b * b * b)) for b in range(1, bmax + 1) if sf[b])


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

"""Square-full (powerful) numbers and relatives.

Every square-full m factors uniquely as m = a^2 b^3 with b square-free; the
ascending enumeration merges the arithmetic streams {a^2 b^3 : a >= 1}, one per
admissible b, through a heap. The prime-powerful subset {q^2 r^3 : q, r prime}
keeps q = r, so fifth powers of primes are members.

The x-only enumerations are built once per process: squarefree_table(x) is a
read-only slice of one table, sieved again only for an x above every earlier
one (t(x) is a prefix of t(y) for y >= x), and the three run builders are
memoized by x, their arrays read-only, so no caller can corrupt a shared result.

The walk histograms h[k], the number of a family's members m <= x with
m = k mod p, visit the members themselves in one numpy pass; they use neither
Mobius inversion nor periodicity mod p, so they check the routes that do.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Iterator

import numpy as np

from . import arith

__all__ = [
    "squarefree_numbers",
    "squarefull_stream",
    "squarefree_runs",
    "squarefull_runs",
    "prime_powerful_runs",
    "squarefree_table",
    "add_runs",
    *("squarefree_walk", "squarefull_walk", "prime_powerful_walk"),
]


_squarefree = np.zeros(1, dtype=bool)  # one per process, the largest so far
# memo size of the run builders: a count's routes ask for one x up to three
# times in a row, and verify's identity suite cycles three x per prime
_RUNS_MEMO = 8


def squarefree_table(x: int) -> np.ndarray:
    """Boolean table t[m] = mu^2(m) for 0 <= m <= x, read-only: a slice of one
    table per process, built again only for an x above every earlier one."""
    global _squarefree
    if x >= len(_squarefree):
        t = np.ones(x + 1, dtype=bool)
        t[0] = False
        if x >= 4:
            for q in arith.sieve_primes(math.isqrt(x)):
                t[q * q :: q * q] = False
        t.flags.writeable = False
        _squarefree = t
    return _squarefree[: x + 1]


def squarefree_numbers() -> Iterator[int]:
    """Unbounded ascending square-free numbers from 2: mu(m) != 0."""
    return (m for m in itertools.count(2) if arith.mobius(m))


def squarefull_stream() -> Iterator[int]:
    """Unbounded ascending square-full stream; new b streams enter when their
    first element b^3 surfaces."""
    bs = squarefree_numbers()
    heap = [(1, 1, 1)]
    while True:
        v, a, b = heapq.heappop(heap)
        if a == 1:
            b_next = next(bs)
            heapq.heappush(heap, (b_next**3, 1, b_next))
        heapq.heappush(heap, ((a + 1) * (a + 1) * b * b * b, a + 1, b))
        yield v


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_RUNS_MEMO)
def squarefree_runs(x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, X, mu): the square-free d <= sqrt(x), X = x // d^2 multiples of d^2
    up to x, and mu(d) as int8, the runs of mu^2(m) = sum_{d^2 | m} mu(d)."""
    mu = arith.mobius_table(math.isqrt(x))
    d = np.flatnonzero(mu)
    return _read_only(d, x // (d * d), mu[d])


@functools.lru_cache(maxsize=_RUNS_MEMO)
def squarefull_runs(x: int) -> tuple[np.ndarray, np.ndarray]:
    """(b, A): every square-free b <= x^(1/3) and A[i] = isqrt(x // b[i]^3),
    the number of square-full a^2 b[i]^3 <= x."""
    b = np.flatnonzero(squarefree_table(arith.icbrt(x)))
    return _read_only(b, np.array([math.isqrt(x // int(v) ** 3) for v in b], dtype=np.int64))


@functools.lru_cache(maxsize=_RUNS_MEMO)
def prime_powerful_runs(x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, K): the primes q <= max(sqrt(x/8), x^(1/3), 2), the primes r <= x^(1/3)
    and K[i] = |{q : q^2 r[i]^3 <= x}|; the members are the runs q[:K[i]]^2 r[i]^3."""
    rmax = arith.icbrt(x)
    q = arith.sieve_primes(max(math.isqrt(x // 8), rmax, 2))
    r = q[: np.searchsorted(q, rmax, side="right")]
    qmax = np.array([math.isqrt(x // int(v) ** 3) for v in r], dtype=np.int64)
    return _read_only(q, r, np.searchsorted(q, qmax, side="right"))


_RUN_CHUNK = 1 << 20  # entries per vectorised batch of add_runs
_SUM_ROWS = (1 << 31) - 1  # rows per int32 column sum of squarefree_walk: none overflows


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
    rows of length p, summed down the columns in int32 (5 times faster than
    in int64), _SUM_ROWS rows at a time."""
    t = squarefree_table(x).view(np.uint8)
    rows = len(t) // p
    grid = t[: rows * p].reshape(rows, p)
    h = np.zeros(p, dtype=np.int64)
    for lo in range(0, rows, _SUM_ROWS):
        h += grid[lo : lo + _SUM_ROWS].sum(axis=0, dtype=np.int32)
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
    """h[k] = |{m = q^2 r^3 <= x : q, r prime, m = k mod p}|: the runs over q, one bincount."""
    q, r, k = prime_powerful_runs(x)
    i = np.arange(int(k.sum()), dtype=np.int64) - np.repeat(np.cumsum(k) - k, k)  # index into q
    return np.bincount((q**2 % p)[i] * np.repeat(r**3 % p, k) % p, minlength=p)

"""Character sums over intervals, square-full numbers, square-free numbers,
primes, and the prime-powerful set {q^2 r^3}.

Each restricted sum has two interchangeable routes. "direct" walks the defining
set and adds character values. "factored" rewrites the sum exactly:

    squarefull:      sum_b mu^2(b) chi(b)^3 * sum_{a <= sqrt(x/b^3)} chi(a)^2
    squarefree:      sum_{d <= sqrt(x)} mu(d) chi(d^2) * sum_{m <= x/d^2} chi(m)
    prime-powerful:  sum_{r <= x^(1/3)} chi(r)^3 * sum_{q <= sqrt(x/r^3)} chi(q)^2
                     (r, q prime)

Route equality is an exact identity, so the pair doubles as a correctness
check; tests and the verify suite exercise it on randomized inputs.

The restricted sums take one Character, or a sequence of k characters of one
context and then return k values in one pass. A factored sum is one numpy
pass over its outer variable (d, b or r) for all k characters: the (k, n)
matrix of character values at those points (_values_at) times the (k, n)
matrix of inner interval or prime sums at the matching bounds
(_interval_values), summed along each row. Values are read from the
discrete-log table as roots of unity, without a per-character table.
Interval sums come from one prefix per character: over 1..max(x) when every
bound is below p, otherwise over a single period extended by periodicity. The
prefixes are built in place, a block of rows of at most p entries at a time,
and not cached: near MAX_LOG_P each row is 64 MB. A direct sum takes the
family's walk histogram (squarefull.*_walk: the members counted by residue
class mod p) and dots it with the per-character value table, one table per
character. Every route reads discrete logs, so every sum here raises
ValueError for p > characters.MAX_LOG_P.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import arith, squarefull
from .characters import Character, PrimeContext

__all__ = [
    "SumResult",
    "sum_char_interval",
    "sum_char_squarefull",
    "sum_char_squarefree",
    "sum_char_primes",
    "sum_char_prime_powerful",
    "burgess_ratio",
    "grh_prime_ratio",
    "burgess_gauge_max",
    "grh_gauge_max",
]


@dataclass(frozen=True)
class SumResult:
    """value is one complex number for one Character and an array of k for
    a sequence of k characters; terms_used counts the terms of all k."""

    value: complex | np.ndarray
    terms_used: int
    route: str


@functools.lru_cache(maxsize=4)
def _primes_cached(limit: int) -> np.ndarray:
    return arith.sieve_primes(limit)


def _values_at(ctx: PrimeContext, js: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """chi_j(m) for j in js (rows) and m in ms (columns), 0 where p | m."""
    r = np.asarray(ms, dtype=np.int64) % ctx.p
    idx = np.multiply.outer(js, ctx.index_table()[r])
    vals = ctx.roots_of_unity()[np.remainder(idx, ctx.p - 1, out=idx)]
    vals[:, r == 0] = 0
    return vals


def _interval_values(ctx: PrimeContext, js: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_{m <= x} chi_j(m) for j in js (rows) and x >= 0 in xs (columns).
    The prefixes over 0..span-1, span = min(max(xs) + 1, p), are built in
    blocks of p // span rows, in two buffers of at most p entries."""
    p = ctx.p
    xs = np.asarray(xs, dtype=np.int64)
    span = min(int(xs.max(initial=0)) + 1, p)
    q, r = np.divmod(xs, p)
    ind = ctx.index_table()[:span]
    roots = ctx.roots_of_unity()
    rows = max(1, min(len(js), p // span))
    idx = np.empty((rows, span), dtype=np.int64)
    pre = np.empty((rows, span), dtype=np.complex128)
    out = np.empty((len(js), len(xs)), dtype=np.complex128)
    for lo in range(0, len(js), rows):
        block = js[lo : lo + rows, None]
        i, v = idx[: len(block)], pre[: len(block)]
        np.multiply(block, ind, out=i)
        np.remainder(i, p - 1, out=i)
        np.take(roots, i, out=v, mode="clip")
        v[:, 0] = 0
        np.cumsum(v, axis=1, out=v)
        out[lo : lo + len(block)] = q * v[:, -1:] + v[:, r]
    return out


def _restricted_sum(ctx, chi, x, route, walk, factored) -> SumResult:
    """One restricted sum of chi (a Character or a sequence of them) by the
    direct route (the walk histogram dotted with each value table) or the
    factored one."""
    if x < 1:
        raise ValueError("need x >= 1")
    ctx.index_table()  # refuses p > MAX_LOG_P before anything of length x
    chars = [chi] if isinstance(chi, Character) else list(chi)
    if any(c.ctx is not ctx for c in chars):
        raise ValueError("every character must belong to ctx")
    js = np.array([c.j for c in chars], dtype=np.int64)
    if route == "direct":
        h = walk(ctx.p, x)
        values = np.array([np.dot(h, ctx.chi_values(j)) for j in js.tolist()], dtype=np.complex128)
        terms = int(h.sum())
    elif route == "factored":
        values, terms = factored(ctx, js, x)
    else:
        raise ValueError(f"unknown route {route!r}")
    if isinstance(chi, Character):
        return SumResult(complex(values[0]), terms, route)
    return SumResult(values, terms * len(js), route)


def sum_char_interval(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    """sum_{m <= x} chi(m)."""
    if x < 1:
        raise ValueError("need x >= 1")
    return SumResult(complex(_interval_values(ctx, np.array([chi.j]), [x])[0, 0]), x, "interval")


def sum_char_squarefull(
    ctx: PrimeContext, chi: Character | Sequence[Character], x: int, route: str = "factored"
) -> SumResult:
    """sum of chi(m) over square-full m <= x."""
    return _restricted_sum(ctx, chi, x, route, squarefull.squarefull_walk, _squarefull_factored)


def _squarefull_factored(ctx: PrimeContext, js: np.ndarray, x: int) -> tuple[np.ndarray, int]:
    n = ctx.p - 1
    b, amax = squarefull.squarefull_runs(x)
    outer = _values_at(ctx, 3 * js % n, b)
    return (outer * _interval_values(ctx, 2 * js % n, amax)).sum(axis=1), int(amax.sum())


def sum_char_squarefree(
    ctx: PrimeContext, chi: Character | Sequence[Character], x: int, route: str = "factored"
) -> SumResult:
    """sum of chi(m) over square-free m <= x."""
    return _restricted_sum(ctx, chi, x, route, squarefull.squarefree_walk, _squarefree_factored)


def _squarefree_factored(ctx: PrimeContext, js: np.ndarray, x: int) -> tuple[np.ndarray, int]:
    mu = arith.mobius_table(math.isqrt(x))
    d = np.flatnonzero(mu)
    inner_x = x // (d * d)
    outer = mu[d] * _values_at(ctx, js, d * d)
    return (outer * _interval_values(ctx, js, inner_x)).sum(axis=1), int(inner_x.sum())


def sum_char_prime_powerful(
    ctx: PrimeContext, chi: Character | Sequence[Character], x: int, route: str = "factored"
) -> SumResult:
    """sum of chi(m) over m = q^2 r^3 <= x, q and r prime."""
    return _restricted_sum(ctx, chi, x, route, squarefull.prime_powerful_walk, _prime_powerful_factored)


def _prime_powerful_factored(ctx: PrimeContext, js: np.ndarray, x: int) -> tuple[np.ndarray, int]:
    rmax = arith.icbrt(x)
    n = ctx.p - 1
    primes = _primes_cached(max(math.isqrt(x // 8), rmax, 2))
    r = primes[: np.searchsorted(primes, rmax, side="right")]
    qmax = np.array([math.isqrt(x // int(v) ** 3) for v in r], dtype=np.int64)
    k = np.searchsorted(primes, qmax, side="right")
    cum = np.zeros((len(js), len(primes) + 1), dtype=np.complex128)
    np.cumsum(_values_at(ctx, 2 * js % n, primes), axis=1, out=cum[:, 1:])
    return (_values_at(ctx, 3 * js % n, r) * cum[:, k]).sum(axis=1), int(k.sum())


# -- primes -----------------------------------------------------------------


def sum_char_primes(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    """sum over primes q <= x of chi(q)."""
    if x < 2:
        raise ValueError("need x >= 2")
    primes = _primes_cached(x)
    total = complex(ctx.chi_values(chi.j)[primes % ctx.p].sum())
    return SumResult(total, len(primes), "primes")


# -- empirical envelope gauges ----------------------------------------------


def burgess_envelope(p: int, x: int, r: int) -> float:
    return x ** (1 - 1 / r) * p ** ((r + 1) / (4 * r * r)) * math.log(p) ** (1 / (2 * r))


def burgess_ratio(ctx: PrimeContext, chi: Character, x: int, r: int) -> float:
    """|interval sum| against the subconvex envelope; a measured gauge, not a
    theorem (the true inequality carries an unspecified constant)."""
    if chi.is_principal:
        raise ValueError("gauge needs a non-principal character")
    if r < 2:
        raise ValueError("need r >= 2")
    return abs(sum_char_interval(ctx, chi, x).value) / burgess_envelope(ctx.p, x, r)


def grh_prime_ratio(ctx: PrimeContext, chi: Character, x: int) -> float:
    """|prime sum| against the conditional sqrt(x) log^2(px) envelope."""
    if x < 2:
        raise ValueError("need x >= 2")
    num = abs(sum_char_primes(ctx, chi, x).value)
    return num / (math.sqrt(x) * math.log(ctx.p * x) ** 2)


def burgess_gauge_max(
    ps: tuple[int, ...] = (101, 1009, 10007),
    rs: tuple[int, ...] = (2, 3),
    xmax: int = 10**4,
) -> dict:
    """Max burgess_ratio for the quadratic character over x in [2, xmax].

    Partial sums are exact integers (Legendre values), so the result is a
    deterministic regression pin.
    """
    from .characters import build_context

    best = {"ratio": -1.0}
    for p in ps:
        ctx = build_context(p)
        signs = ctx.qr_signs()
        x = np.arange(1, xmax + 1, dtype=np.int64)
        partial = np.cumsum(signs[x % p].astype(np.int64))
        absS = np.abs(partial[1:]).astype(np.float64)  # x >= 2
        xs = x[1:].astype(np.float64)
        for r in rs:
            ratios = absS / burgess_envelope(p, xs, r)
            k = int(np.argmax(ratios))
            if ratios[k] > best["ratio"]:
                best = {"ratio": float(ratios[k]), "p": p, "r": r, "x": int(x[1:][k])}
    return best


def grh_gauge_max(ps: tuple[int, ...] = (101, 1009, 10007), xmax: int = 10**7) -> dict:
    """Max grh_prime_ratio for the quadratic character over x <= xmax.

    Between consecutive primes the numerator is constant and the envelope
    grows, so scanning x over primes is exact.
    """
    from .characters import build_context

    primes = _primes_cached(xmax)
    best = {"ratio": -1.0}
    for p in ps:
        ctx = build_context(p)
        signs = ctx.qr_signs()
        partial = np.cumsum(signs[primes % p].astype(np.int64))
        xs = primes.astype(np.float64)
        ratios = np.abs(partial) / (np.sqrt(xs) * np.log(p * xs) ** 2)
        k = int(np.argmax(ratios))
        if ratios[k] > best["ratio"]:
            best = {"ratio": float(ratios[k]), "p": p, "x": int(primes[k])}
    return best

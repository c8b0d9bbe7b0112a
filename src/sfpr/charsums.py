"""Character sums over square-full numbers, square-free numbers and the
prime-powerful set {q^2 r^3}.

Each restricted sum has two interchangeable routes. "direct" walks the defining
set and adds character values. "factored" rewrites the sum exactly:

    squarefull:      sum_b mu^2(b) chi(b)^3 * sum_{a <= sqrt(x/b^3)} chi(a)^2
    squarefree:      sum_{d <= sqrt(x)} mu(d) chi(d^2) * sum_{m <= x/d^2} chi(m)
    prime-powerful:  sum_{r <= x^(1/3)} chi(r)^3 * sum_{q <= sqrt(x/r^3)} chi(q)^2
                     (r, q prime)

Route equality is an exact identity, so the pair doubles as a correctness
check; tests and the verify suite exercise it on randomized inputs.

The restricted sums take a context and a sequence of k character indices js
(see sfpr.characters) and return the k sums as one array, in one pass. A
factored sum is one numpy pass over its outer variable (d, b or r) for all k
characters: the (k, n) matrix of character values at those points
(PrimeContext.values) times the (k, n) matrix of inner interval or prime
sums at the matching bounds (_interval_values), summed along each row.
Interval sums come from one prefix per character: over 1..max(x) when every
bound is below p, otherwise over a single period extended by periodicity.
The prefixes are gathered in place, a block of rows of at most max(p, 2^16)
entries at a time (so at small p every character in one pass), not through
PrimeContext.values (see sfpr.characters), and not cached: near MAX_LOG_P
each row is 64 MB. A direct sum takes the family's walk histogram
(squarefull.*_walk: the members counted by residue class mod p) and dots it
with each character's values over the p residues, one row of
PrimeContext.values at a time, so it holds O(p) values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import squarefull
from .characters import PrimeContext

__all__ = [
    "SumResult",
    "sum_char_squarefull",
    "sum_char_squarefree",
    "sum_char_prime_powerful",
]


_PREFIX_BLOCK = 1 << 16  # prefix entries per block at least, so small p take one block


@dataclass(frozen=True)
class SumResult:
    """value holds the k sums of k character indices, in their order;
    terms_used counts the terms of all k."""

    value: np.ndarray
    terms_used: int


def _interval_values(ctx: PrimeContext, js: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_{m <= x} chi_j(m) for j in js (rows) and x >= 0 in xs (columns).
    The prefixes over 0..span-1, span = min(max(xs) + 1, p), are built in
    blocks of max(p, _PREFIX_BLOCK) // span rows, in two buffers of at most
    max(p, _PREFIX_BLOCK) entries."""
    p = ctx.p
    xs = np.asarray(xs, dtype=np.int64)
    span = min(int(xs.max(initial=0)) + 1, p)
    q, r = np.divmod(xs, p)
    ind = ctx.index_table[:span]
    roots = ctx.roots_of_unity
    rows = max(1, min(len(js), max(p, _PREFIX_BLOCK) // span))
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


def _restricted_sum(ctx, js, x, route, walk, factored) -> SumResult:
    """The restricted sums of chi_j for j in js by the direct route (the
    walk histogram dotted with each character's values) or the factored one."""
    ctx.logs_to(x)
    js = np.asarray(js, dtype=np.int64)
    if route == "direct":
        h = walk(ctx.p, x)
        residues = np.arange(ctx.p)
        values = np.array([np.dot(h, ctx.values([j], residues)[0]) for j in js], dtype=np.complex128)
        terms = int(h.sum())
    elif route == "factored":
        values, terms = factored(ctx, js, x)
    else:
        raise ValueError(f"unknown route {route!r}")
    return SumResult(values, terms * len(js))


def sum_char_squarefull(ctx: PrimeContext, js: Sequence[int], x: int, route: str) -> SumResult:
    """sum of chi_j(m) over square-full m <= x, for j in js."""
    return _restricted_sum(ctx, js, x, route, squarefull.squarefull_walk, _squarefull_factored)


def _squarefull_factored(ctx: PrimeContext, js: np.ndarray, x: int) -> tuple[np.ndarray, int]:
    n = ctx.p - 1
    b, amax = squarefull.squarefull_runs(x)
    outer = ctx.values(3 * js % n, b)
    return (outer * _interval_values(ctx, 2 * js % n, amax)).sum(axis=1), int(amax.sum())


def sum_char_squarefree(ctx: PrimeContext, js: Sequence[int], x: int, route: str) -> SumResult:
    """sum of chi_j(m) over square-free m <= x, for j in js."""
    return _restricted_sum(ctx, js, x, route, squarefull.squarefree_walk, _squarefree_factored)


def _squarefree_factored(ctx: PrimeContext, js: np.ndarray, x: int) -> tuple[np.ndarray, int]:
    d, inner_x, mu = squarefull.squarefree_runs(x)
    outer = mu * ctx.values(js, d * d)
    return (outer * _interval_values(ctx, js, inner_x)).sum(axis=1), int(inner_x.sum())


def sum_char_prime_powerful(ctx: PrimeContext, js: Sequence[int], x: int, route: str) -> SumResult:
    """sum of chi_j(m) over m = q^2 r^3 <= x, q and r prime, for j in js."""
    return _restricted_sum(ctx, js, x, route, squarefull.prime_powerful_walk, _prime_powerful_factored)


def _prime_powerful_factored(ctx: PrimeContext, js: np.ndarray, x: int) -> tuple[np.ndarray, int]:
    n = ctx.p - 1
    q, r, k = squarefull.prime_powerful_runs(x)
    cum = np.zeros((len(js), len(q) + 1), dtype=np.complex128)
    np.cumsum(ctx.values(2 * js % n, q), axis=1, out=cum[:, 1:])
    return (ctx.values(3 * js % n, r) * cum[:, k]).sum(axis=1), int(k.sum())

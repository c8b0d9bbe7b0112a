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

Each factored sum is one dot product of two arrays over its outer variable
(d, b or r): the character values at those points (_values_at) and the
inner interval or prime sums at the matching bounds (_interval_values).
Values are read from the discrete-log table as roots of unity, without a
per-character table. Interval sums come from one prefix: over 1..max(x)
when every bound is below p, otherwise over a single period extended by
periodicity. The prefix is built per call and not cached: near MAX_LOG_P
each one is 64 MB. The direct routes read the per-character value table.
Every route reads discrete logs, so every sum here raises ValueError for
p > characters.MAX_LOG_P.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arith, squarefull
from .characters import Character, PrimeContext, char_eval

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
    value: complex
    terms_used: int
    route: str


@functools.lru_cache(maxsize=4)
def _primes_cached(limit: int) -> np.ndarray:
    return arith.sieve_primes(limit)


@functools.lru_cache(maxsize=4)
def _mobius_cached(limit: int) -> np.ndarray:
    """arith.mobius_table(limit), read-only: the factored square-free sums of
    every character checked at one x share it."""
    mu = arith.mobius_table(limit)
    mu.flags.writeable = False
    return mu


def _values_at(chi: Character, ms: np.ndarray) -> np.ndarray:
    """chi(m) for every m in ms, 0 at multiples of p."""
    ctx = chi.ctx
    ind = ctx.index_table()
    r = np.asarray(ms, dtype=np.int64) % ctx.p
    vals = ctx.roots_of_unity()[ind[r] * chi.j % (ctx.p - 1)]
    vals[r == 0] = 0
    return vals


def _interval_values(chi: Character, xs: np.ndarray) -> np.ndarray:
    """sum_{m <= x} chi(m) for every x >= 0 in xs."""
    ctx = chi.ctx
    p = ctx.p
    xs = np.asarray(xs, dtype=np.int64)
    span = min(int(xs.max(initial=0)) + 1, p)
    vals = ctx.roots_of_unity()[ctx.index_table()[:span] * chi.j % (p - 1)]
    vals[0] = 0
    pre = np.cumsum(vals)
    q, r = np.divmod(xs, p)
    return q * pre[-1] + pre[r]


def sum_char_interval(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    """sum_{m <= x} chi(m)."""
    if x < 1:
        raise ValueError("need x >= 1")
    return SumResult(complex(_interval_values(chi, [x])[0]), x, "interval")


# -- square-full ------------------------------------------------------------


def sum_char_squarefull(
    ctx: PrimeContext, chi: Character, x: int, route: str = "factored"
) -> SumResult:
    if x < 1:
        raise ValueError("need x >= 1")
    if route == "direct":
        return _squarefull_direct(ctx, chi, x)
    if route == "factored":
        return _squarefull_factored(ctx, chi, x)
    raise ValueError(f"unknown route {route!r}")


def _squarefull_direct(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    p = ctx.p
    bmax = arith.icbrt(x)
    sf = squarefull.squarefree_table(bmax)
    vals = ctx.chi_values(chi.j)
    total = 0j
    terms = 0
    for b in range(1, bmax + 1):
        if not sf[b]:
            continue
        cube = b * b * b
        amax = math.isqrt(x // cube)
        a = np.arange(1, amax + 1, dtype=np.int64)
        res = (a * a % p) * (cube % p) % p
        total += complex(vals[res].sum())
        terms += amax
    return SumResult(total, terms, "direct")


def _squarefull_factored(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    b = np.flatnonzero(squarefull.squarefree_table(arith.icbrt(x)))
    amax = np.array([math.isqrt(x // int(v) ** 3) for v in b], dtype=np.int64)
    total = np.dot(_values_at(chi.power(3), b), _interval_values(chi.power(2), amax))
    return SumResult(complex(total), int(amax.sum()), "factored")


# -- square-free ------------------------------------------------------------


def sum_char_squarefree(
    ctx: PrimeContext, chi: Character, x: int, route: str = "factored"
) -> SumResult:
    if x < 1:
        raise ValueError("need x >= 1")
    if route == "direct":
        return _squarefree_direct(ctx, chi, x)
    if route == "factored":
        return _squarefree_factored(ctx, chi, x)
    raise ValueError(f"unknown route {route!r}")


def _squarefree_direct(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    sf = squarefull.squarefree_table(x)
    members = np.flatnonzero(sf)
    total = complex(ctx.chi_values(chi.j)[members % ctx.p].sum())
    return SumResult(total, len(members), "direct")


def _squarefree_factored(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    mu = _mobius_cached(math.isqrt(x))
    d = np.flatnonzero(mu)
    inner_x = x // (d * d)
    total = np.dot(mu[d] * _values_at(chi, d * d), _interval_values(chi, inner_x))
    return SumResult(complex(total), int(inner_x.sum()), "factored")


# -- primes -----------------------------------------------------------------


def sum_char_primes(ctx: PrimeContext, chi: Character, x: int) -> SumResult:
    """sum over primes q <= x of chi(q)."""
    if x < 2:
        raise ValueError("need x >= 2")
    primes = _primes_cached(x)
    total = complex(ctx.chi_values(chi.j)[primes % ctx.p].sum())
    return SumResult(total, len(primes), "primes")


# -- prime-powerful ---------------------------------------------------------


def sum_char_prime_powerful(
    ctx: PrimeContext, chi: Character, x: int, route: str = "factored"
) -> SumResult:
    if x < 1:
        raise ValueError("need x >= 1")
    if route == "direct":
        vals = squarefull.enumerate_prime_powerful(x)
        total = sum(char_eval(chi, m) for m in vals)
        return SumResult(total, len(vals), "direct")
    if route != "factored":
        raise ValueError(f"unknown route {route!r}")
    rmax = arith.icbrt(x)
    if rmax < 2:
        return SumResult(0j, 0, "factored")
    qlimit = math.isqrt(x // 8)
    primes = _primes_cached(max(qlimit, rmax))
    r = primes[: np.searchsorted(primes, rmax, side="right")]
    qmax = np.array([math.isqrt(x // int(v) ** 3) for v in r], dtype=np.int64)
    k = np.searchsorted(primes, qmax, side="right")
    cum = np.concatenate([[0j], np.cumsum(_values_at(chi.power(2), primes))])
    total = np.dot(_values_at(chi.power(3), r), cum[k])
    return SumResult(complex(total), int(k.sum()), "factored")


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
    if x < 1:
        raise ValueError("need x >= 1")
    return abs(_interval_values(chi, [x])[0]) / burgess_envelope(ctx.p, x, r)


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
            env = xs ** (1 - 1 / r) * p ** ((r + 1) / (4 * r * r)) * math.log(p) ** (1 / (2 * r))
            ratios = absS / env
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

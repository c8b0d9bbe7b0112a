"""Integer arithmetic groundwork: prime sieves, factorization, multiplicative
functions, Legendre symbols, and primitive-root tests.

Everything here works on plain Python ints (arbitrary precision, so modular
products never overflow) with numpy reserved for bulk sieves and tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Factorization",
    "sieve_primes",
    "is_prime",
    "factorize",
    "divisors",
    "euler_phi",
    "mobius",
    "mobius_table",
    "omega",
    "legendre",
    "is_primitive_root",
    "least_primitive_root",
    "icbrt",
]

# Deterministic Miller-Rabin witness sets. 1 373 653 and 3 215 031 751 are
# the least strong pseudoprimes to bases {2, 3} and {2, 3, 5, 7}
# (Pomerance-Selfridge-Wagstaff, Math. Comp. 35 (1980); Jaeschke, Math. Comp.
# 61 (1993)), so those sets are exact below them; the 7-base set is exact for
# every n < 2^64.
_MR_SMALL = ((1_373_653, (2, 3)), (3_215_031_751, (2, 3, 5, 7)))
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SIMPLE_SIEVE_CUTOFF = 1 << 22
_SEGMENT = 1 << 20


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as an int64 array."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit <= _SIMPLE_SIEVE_CUTOFF:
        return _sieve_simple(limit)
    return _sieve_segmented(limit)


def _sieve_simple(limit: int) -> np.ndarray:
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _sieve_segmented(limit: int) -> np.ndarray:
    base = _sieve_simple(math.isqrt(limit))
    chunks = [base]
    lo = int(base[-1]) + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start < p * p:
                start = p * p
            if start < hi:
                seg[start - lo :: p] = False
        chunks.append(np.flatnonzero(seg).astype(np.int64) + lo)
        lo = hi
    return np.concatenate(chunks)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = next((bases for bound, bases in _MR_SMALL if n < bound), _MR_WITNESSES)
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with factors ascending; primes are the distinct p."""

    n: int
    factors: tuple[tuple[int, int], ...]
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(p for p, _ in self.factors))


_TRIAL_LIMIT = 100_000
_trial_primes: list[int] | None = None


def _small_primes() -> list[int]:
    global _trial_primes
    if _trial_primes is None:
        _trial_primes = [int(p) for p in sieve_primes(_TRIAL_LIMIT)]
    return _trial_primes


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, Brent's cycle variant."""
    for c in range(1, 64):
        y, m, r, q, g = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division, then Brent rho on the cofactor."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    original = n
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return Factorization(original, tuple(sorted(out.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n).factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(n: int) -> int:
    fac = factorize(n).factors
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n).factors)


def mobius_table(limit: int) -> np.ndarray:
    """mu(m) for m in [0, limit] as int8; mu(0) stored as 0."""
    if limit < 1:
        raise ValueError("mobius table needs limit >= 1")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in sieve_primes(max(2, limit)) if limit >= 2 else ():
        p = int(p)
        mu[p::p] *= -1
        sq = p * p
        if sq <= limit:
            mu[sq::sq] = 0
    return mu


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("legendre needs an odd prime modulus")
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


def is_primitive_root(a: int, ctx) -> bool:
    """ctx supplies .p and .p1_primes, the distinct prime divisors of p-1."""
    p = ctx.p
    if a % p == 0:
        return False
    n = p - 1
    for q in ctx.p1_primes:
        if pow(a, n // q, p) == 1:
            return False
    return True


def least_primitive_root(p: int, p1: Factorization | None = None) -> int:
    """g(p), the smallest positive primitive root; p1, when given, is the
    factorization of p - 1, which is then not recomputed."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("modulus must be an odd prime")
    n = p - 1
    if p1 is None:
        p1 = factorize(n)
    elif p1.n != n:
        raise ValueError(f"factorization of {p1.n} given for p - 1 = {n}")
    qs = p1.primes
    a = 2
    while True:
        if all(pow(a, n // q, p) != 1 for q in qs):
            return a
        a += 1


def icbrt(n: int) -> int:
    """floor(n^(1/3)) exactly."""
    if n < 0:
        raise ValueError("icbrt needs n >= 0")
    r = round(n ** (1 / 3)) if n else 0
    while r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r

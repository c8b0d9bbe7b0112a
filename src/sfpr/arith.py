"""Integer arithmetic groundwork: prime sieves, factorization, multiplicative
functions, Legendre symbols, and primitive-root tests.

Everything here works on plain Python ints (arbitrary precision, so modular
products never overflow) with numpy reserved for bulk sieves and tables. The
lane functions (pow_mod_lanes, prime_factors_lanes, legendre_lanes, legendre_at)
apply one operation to a whole int64 array at once; they are exact for moduli
up to MAX_INT64_MODULUS, where a product of two residues stays below 2^63.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "sieve_primes",
    "is_prime",
    "factorize",
    "euler_phi",
    "mobius",
    "mobius_table",
    "is_primitive_root",
    "least_primitive_root",
    "icbrt",
    "MAX_INT64_MODULUS",
    "pow_mod_lanes",
    "prime_factors_lanes",
    "legendre_lanes",
    "legendre_at",
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
# one per process, the largest so far: (limit, its primes) and the Mobius table
_sieved = (1, np.zeros(0, dtype=np.int64))
_mobius = np.zeros(1, dtype=np.int8)


def sieve_primes(limit: int, lo: int = 2) -> np.ndarray:
    """All primes in [lo, limit], ascending, as an int64 array. Up to
    _SIMPLE_SIEVE_CUTOFF it is a read-only slice of one list per process,
    sieved again only for a limit above every earlier one; past it only the
    segments from lo are sieved, so memory follows the window, not limit."""
    global _sieved
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > _SIMPLE_SIEVE_CUTOFF:
        return _sieve_segmented(limit, lo)
    if limit > _sieved[0]:
        _sieved = (limit, _sieve_simple(limit))
        _sieved[1].flags.writeable = False
    ps = _sieved[1]
    return ps[np.searchsorted(ps, lo) : np.searchsorted(ps, limit, side="right")]


def _sieve_simple(limit: int) -> np.ndarray:
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _sieve_segmented(limit: int, lo: int) -> np.ndarray:
    base = _sieve_simple(math.isqrt(limit))
    chunks = [base[np.searchsorted(base, lo) :]]
    lo = max(lo, int(base[-1]) + 1)
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


@functools.cache
def _small_primes() -> list[int]:
    """The trial divisors of factorize."""
    return sieve_primes(100_000).tolist()


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


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n, primes ascending, by trial division,
    then Brent rho on the cofactor."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    else:
        # the trial primes ran out below sqrt(n): the cofactor may be composite
        stack = [n] if n > 1 else []
        n = 1
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    if n > 1:  # no prime up to sqrt(n) divides it
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def mobius_table(limit: int) -> np.ndarray:
    """mu(m) for m in [0, limit] as read-only int8; mu(0) stored as 0: a
    slice of one table per process, built again only for a limit above every
    earlier one, so every count's runs and factored check share it."""
    global _mobius
    if limit < 1:
        raise ValueError("mobius table needs limit >= 1")
    if limit >= len(_mobius):
        mu = np.ones(limit + 1, dtype=np.int8)
        mu[0] = 0
        for p in sieve_primes(max(2, limit)).tolist():
            mu[p::p] *= -1
            sq = p * p
            if sq <= limit:
                mu[sq::sq] = 0
        mu.flags.writeable = False
        _mobius = mu
    return _mobius[: limit + 1]


def is_primitive_root(a: int, p: int, qs) -> bool:
    """a generates the units mod the prime p; qs are the distinct primes of
    p - 1."""
    if a % p == 0:
        return False
    n = p - 1
    for q in qs:
        if pow(a, n // q, p) == 1:
            return False
    return True


def least_primitive_root(p: int, qs) -> int:
    """g(p), the smallest positive primitive root; qs are the distinct primes
    of p - 1, which is not factored here. A qs with a q < 2, a q not dividing
    p - 1, or missing a prime of p - 1 is refused (none is missing exactly
    when p - 1 divides prod(qs)^k, k >= log2(p))."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("modulus must be an odd prime")
    n = p - 1
    if any(q < 2 or n % q for q in qs) or pow(math.prod(qs), n.bit_length(), n):
        raise ValueError(f"primes {tuple(qs)} given are not those of p - 1 = {n}")
    a = 2
    while not is_primitive_root(a, p, qs):
        a += 1
    return a


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


# -- lanes: one operation over an int64 array of moduli ----------------------

MAX_INT64_MODULUS = math.isqrt((1 << 63) - 1)  # (m - 1)^2 < 2^63 for every m up to this


def pow_mod_lanes(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod mod, elementwise over 1-D int64 arrays of one length, left
    to right over the 2-bit digits of exp with a table of base^0 .. base^3
    (k-ary exponentiation, k = 4: Menezes, van Oorschot and Vanstone,
    Handbook of Applied Cryptography, Alg. 14.82): two squares and one
    product per digit; exact while every mod <= MAX_INT64_MODULUS."""
    b = base % mod
    b2 = b * b % mod
    # row i of the flat table holds base^0 .. base^3 mod mod[i]
    table = np.stack([1 % mod, b, b2, b2 * b % mod], axis=1).ravel()
    row = np.arange(0, len(table), 4)
    # the bits of the largest exp, rounded up to whole digits
    shift = max(2, (int(exp.max(initial=0)).bit_length() + 1) & ~1)
    result = table[row + ((exp >> (shift - 2)) & 3)]
    for s in range(shift - 4, -1, -2):
        result = result * result % mod
        result = result * result % mod
        result = result * table[row + ((exp >> s) & 3)] % mod
    return result


def prime_factors_lanes(ns: np.ndarray) -> np.ndarray:
    """The distinct prime factors of every n of ns, an ascending int64 array
    of distinct positive integers, as a matrix with one ascending row per n,
    zero-padded. One sieve over [ns[0], ns[-1]] by the primes up to
    sqrt(ns[-1]) finds the small factors, so memory is O(ns[-1] - ns[0]); the
    cofactor left after them is 1 or a prime."""
    ns = np.asarray(ns, dtype=np.int64)
    if len(ns) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    lo, hi = int(ns[0]), int(ns[-1])
    slot = np.full(hi - lo + 1, -1, dtype=np.int64)
    slot[ns - lo] = np.arange(len(ns))
    qs = sieve_primes(max(2, math.isqrt(hi)))
    # the slots of q's multiples, one strided view per q, kept where an n sits
    owners = [slot[first::q] for q, first in zip(qs.tolist(), (-lo % qs).tolist())]
    owners = [o[o >= 0] for o in owners]
    q = np.repeat(qs, [len(o) for o in owners])
    owner = np.concatenate(owners)
    # q^e, the full power of q in its n, and the cofactor the small q leave
    power = q.copy()
    n = ns[owner]
    deeper = np.flatnonzero(n % (q * q) == 0)
    while len(deeper):
        power[deeper] *= q[deeper]
        deeper = deeper[n[deeper] % (power[deeper] * q[deeper]) == 0]
    smooth = np.ones(len(ns), dtype=np.int64)
    np.multiply.at(smooth, owner, power)
    cofactor = ns // smooth
    big = np.flatnonzero(cofactor > 1)
    owner = np.concatenate([owner, big])
    q = np.concatenate([q, cofactor[big]])
    # by owner alone, stably: the small q come in ascending order, and the
    # cofactor, last, exceeds them all
    order = np.argsort(owner.astype(np.min_scalar_type(len(ns) - 1)), kind="stable")
    owner, q = owner[order], q[order]
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    out = np.zeros((len(ns), int(rank.max(initial=-1)) + 1), dtype=np.int64)
    out[owner, rank] = q
    return out


@functools.cache
def _reciprocity_table(ell: int) -> np.ndarray:
    """t[r] = (ell|p) for every odd prime p = r mod 4 ell, p != ell: the
    second supplement (2|p) = (-1)^((p^2-1)/8) for ell = 2, quadratic
    reciprocity (ell|p) = (p|ell) (-1)^((ell-1)/2 (p-1)/2) for odd ell.
    Entries that no such p reaches are 0."""
    t = np.zeros(4 * ell, dtype=np.int8)
    for r in range(1, 4 * ell, 2):
        if ell == 2:
            t[r] = 1 if r % 8 in (1, 7) else -1
        elif r % ell:
            p_over_ell = 1 if pow(r, (ell - 1) // 2, ell) == 1 else -1
            t[r] = -p_over_ell if ell % 4 == 3 and r % 4 == 3 else p_over_ell
    t.flags.writeable = False
    return t


def legendre_lanes(ell: int, ps: np.ndarray) -> np.ndarray:
    """(ell|p) as int8 for every odd prime p of the int64 array ps, ell a
    prime, looked up from p mod 4 ell; 0 where p = ell."""
    return _reciprocity_table(ell)[ps % (4 * ell)]


def legendre_at(ns: np.ndarray, p: int) -> np.ndarray:
    """(n|p) as int8 for every n of the 1-D int64 array ns by Euler's
    criterion, n^((p-1)/2) mod p in one pow_mod_lanes call; 0 where p | n."""
    if not (2 < p <= MAX_INT64_MODULUS and is_prime(p)):  # past the bound the lanes are inexact
        raise ValueError(f"need an odd prime p <= MAX_INT64_MODULUS = {MAX_INT64_MODULUS}, got {p}")
    r = pow_mod_lanes(ns, np.full(len(ns), p // 2), np.full(len(ns), p))
    return np.where(r == p - 1, -1, r).astype(np.int8)  # r is 0, 1 or p - 1

"""Dirichlet characters mod an odd prime p, represented by exponent index.

A character is its index j, 0 <= j <= p-2, against the context's fixed least
primitive root g: writing m = g^k, chi_j(m) = exp(2 pi i j k / (p-1)), and
chi_j(m) = 0 when p | m. j = 0 is the principal character, j = (p-1)/2 the
quadratic one (it coincides with the Legendre symbol); chi_j has order
(p-1)/gcd(j, p-1), and its conjugate is chi_{-j mod p-1}. Every layer
computes with integer arrays of such indices; there is no character object.

Discrete logs come from one full int32 lookup table, filled by rows of about
sqrt(p) consecutive powers of the generator, one numpy outer product per
block of rows up to 2^16 entries (one block for every p below 2^16), for
every p up to MAX_LOG_P = 2^22. The bound is a memory budget: a count at the
largest prime below it holds the table, the primitive-root table and the
family's FFT in well under 1 GB. A count reads the logs through
PrimeContext.logs_to(x), the one check of its domain: x outside [1, 2^63)
and p > MAX_LOG_P are refused there, before anything of length p or x is
allocated (the value and primitive-root tables read index_table, which
refuses p, first too). Every table is a cached property, built on its first
read; a context stays lightweight until something asks for one. The
Legendre-symbol table needs no logs and serves p up to MAX_QR_P = 2^24,
where the constants report built on it peaks under 1 GB; above it qr_signs
raises ValueError before allocating anything. Of the program only the
direct C_p route reads it; the closed route and the q^2 r^3 main term take
their few symbols from Euler's criterion (arith.legendre_at).

Character values are read through PrimeContext.values: the roots of unity
gathered at j ind(m) mod p-1 for a matrix of characters j and points m.
Nothing keeps a per-character table; a caller that needs chi_j over all p
residues asks for that row and drops it. The one exception is
charsums._interval_values, which gathers its prefixes in place into two
buffers of max(p, 2^16) entries whatever the number of characters: through
PrimeContext.values the ten characters of a count's check would hold ten
p-length rows of each, about 1 GB at p = 4194301, and one character took
1.4 to 2.9 times as long per call (2.5 against 0.9 ms at p = 99991).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arith

__all__ = ["PrimeContext", "build_context", "MAX_LOG_P", "MAX_QR_P"]

MAX_LOG_P = 1 << 22
MAX_QR_P = 1 << 24
_TABLE_BLOCK = 1 << 16  # entries per numpy block of index_table


@dataclass(eq=False)
class PrimeContext:
    """Fixed data for one modulus: p, a generator, the distinct primes of
    p-1 (ascending), and the discrete-log, root-of-unity and residue tables
    built from them on first read."""

    p: int
    generator: int
    p1_primes: tuple[int, ...]

    # -- discrete logarithm -------------------------------------------------

    @functools.cached_property
    def index_table(self) -> np.ndarray:
        """ind[r] = k with generator^k = r (mod p), 0 <= k <= p-2, for
        residues r in [1, p-1], and ind[0] = 0. Raises ValueError for p >
        MAX_LOG_P before allocating anything."""
        if self.p > MAX_LOG_P:
            raise ValueError(
                f"discrete logs need p <= MAX_LOG_P = {MAX_LOG_P} (1 GB budget), got {self.p}"
            )
        # rows of span = isqrt(p-1)+1 consecutive powers: row i is
        # g^(i span) * (g^0 .. g^(span-1)) mod p, and a block of rows up to
        # _TABLE_BLOCK entries is one outer product; the products stay below
        # p^2 < 2^63
        p, g, n = self.p, self.generator, self.p - 1
        span = math.isqrt(n) + 1
        powers = [1]
        for _ in range(span):
            powers.append(powers[-1] * g % p)
        leads = [1]
        for _ in range(-(-n // span) - 1):
            leads.append(leads[-1] * powers[span] % p)
        powers, leads = np.array(powers[:span], dtype=np.int64), np.array(leads, dtype=np.int64)
        table = np.zeros(p, dtype=np.int32)  # p < 2^31; j * ind is taken in int64
        rows = max(1, _TABLE_BLOCK // span)
        for lo in range(0, len(leads), rows):
            start = lo * span
            r = np.multiply.outer(leads[lo : lo + rows], powers).ravel()[: n - start]
            table[np.remainder(r, p, out=r)] = np.arange(start, start + len(r), dtype=np.int32)
        return table

    def logs_to(self, x: int) -> np.ndarray:
        """index_table, for a count up to x: x outside [1, 2^63), where the
        walks' int64 powers would overflow, and p > MAX_LOG_P raise
        ValueError before anything of length p or x is allocated."""
        if not 1 <= x < 1 << 63:
            raise ValueError("need 1 <= x < 2^63")
        return self.index_table

    # -- tables and character values -----------------------------------------

    @functools.cached_property
    def roots_of_unity(self) -> np.ndarray:
        """exp(2 pi i k/(p-1)) for k in [0, p-2]."""
        n = self.p - 1
        w = np.arange(n, dtype=np.complex128)  # in place: one array of n
        w *= 2j * np.pi
        w /= n
        return np.exp(w, out=w)

    def values(self, js, ms) -> np.ndarray:
        """chi_j(m) for j in js (rows) and m in ms (columns), 0 where p | m."""
        r = np.asarray(ms, dtype=np.int64) % self.p
        idx = np.multiply.outer(np.asarray(js, dtype=np.int64), self.index_table[r])
        vals = self.roots_of_unity[np.remainder(idx, self.p - 1, out=idx)]
        vals[:, np.flatnonzero(r == 0)] = 0
        return vals

    @functools.cached_property
    def qr_signs(self) -> np.ndarray:
        """Legendre-symbol table over residues as int8; built from squares,
        independent of the discrete log. The squares of 1..(p-1)/2 are
        distinct mod p, so no deduplication is needed. Raises ValueError for
        p > MAX_QR_P before allocating anything."""
        if self.p > MAX_QR_P:
            raise ValueError(
                f"residue tables need p <= MAX_QR_P = {MAX_QR_P} (1 GB budget), got {self.p}"
            )
        p = self.p
        k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
        signs = np.full(p, -1, dtype=np.int8)
        signs[0] = 0
        signs[k * k % p] = 1
        return signs

    @functools.cached_property
    def is_pr_table(self) -> np.ndarray:
        """Boolean table over residues: is a primitive root."""
        idx = self.index_table
        n = self.p - 1
        coprime = np.ones(n, dtype=bool)
        for q in self.p1_primes:
            coprime[::q] = False
        table = np.zeros(self.p, dtype=bool)
        table[1:] = coprime[idx[1:]]
        return table


def build_context(p: int) -> PrimeContext:
    """Context for an odd prime modulus, 3 <= p < 2^63."""
    if p < 3 or p >= 1 << 63:
        raise ValueError("modulus must be an odd prime in [3, 2^63)")
    if p % 2 == 0:
        raise ValueError("modulus must be an odd prime")
    # p - 1 is factored once; least_primitive_root tests p for primality
    qs = tuple(q for q, _ in arith.factorize(p - 1))
    return PrimeContext(p=p, generator=arith.least_primitive_root(p, qs), p1_primes=qs)


"""Dirichlet characters mod an odd prime p, represented by exponent index.

A character is a pair (context, j) with 0 <= j <= p-2: writing m = g^k for the
context's fixed least primitive root g, chi_j(m) = exp(2 pi i j k / (p-1)), and
chi_j(m) = 0 when p | m. j = 0 is the principal character, j = (p-1)/2 the
quadratic one (it coincides with the Legendre symbol).

Discrete logs come from one full lookup table, filled in numpy blocks of
about sqrt(p) consecutive powers of the generator, for every p up to
MAX_LOG_P = 2^22. The bound is a memory budget: a count at the largest prime
below it holds the table, the primitive-root table and the family's FFT in
well under 1 GB. Above it index_table raises ValueError, and the value and
primitive-root tables fetch the index table before allocating their own. The
table is built lazily; a context stays lightweight until something asks for
an index.

Per-character value tables over all p residues are held in a
least-recently-used cache of CHI_CACHE_SIZE entries per context, so they take
at most CHI_CACHE_SIZE * 16 p bytes however many characters are visited. Only
the direct character-sum routes read them, one table per character summed.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import arith

__all__ = [
    "PrimeContext",
    "Character",
    "build_context",
    "char_eval",
    "characters_of_order",
    "MAX_LOG_P",
    "CHI_CACHE_SIZE",
]

MAX_LOG_P = 1 << 22
CHI_CACHE_SIZE = 4


@dataclass(eq=False)
class PrimeContext:
    """Fixed data for one modulus: p, the factored p-1, a generator, and
    lazily-built discrete-log and character-value tables."""

    p: int
    generator: int
    p1_factorization: arith.Factorization
    cache: dict = field(default_factory=dict, repr=False)

    _index_table: np.ndarray | None = field(default=None, repr=False)
    _roots: np.ndarray | None = field(default=None, repr=False)
    _chi_tables: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _qr_signs: np.ndarray | None = field(default=None, repr=False)
    _is_pr: np.ndarray | None = field(default=None, repr=False)

    @property
    def p1_primes(self) -> tuple[int, ...]:
        return self.p1_factorization.primes

    # -- discrete logarithm -------------------------------------------------

    def index(self, m: int) -> int:
        """k with generator^k = m (mod p), 0 <= k <= p-2."""
        r = m % self.p
        if r == 0:
            raise ValueError("index undefined for multiples of p")
        return int(self.index_table()[r])

    def index_table(self) -> np.ndarray:
        """ind[r] = index(r) for residues r in [1, p-1], ind[0] = 0. Raises
        ValueError for p > MAX_LOG_P before allocating anything."""
        if self.p > MAX_LOG_P:
            raise ValueError(
                f"discrete logs need p <= MAX_LOG_P = {MAX_LOG_P} (1 GB budget), got {self.p}"
            )
        if self._index_table is None:
            # blocks of span = isqrt(p-1)+1 consecutive powers: block i is
            # g^(i span) * (g^0 .. g^(span-1)) mod p, one numpy product each;
            # the products stay below p^2 < 2^63
            p, g, n = self.p, self.generator, self.p - 1
            span = math.isqrt(n) + 1
            powers = np.empty(span, dtype=np.int64)
            v = 1
            for k in range(span):
                powers[k] = v
                v = v * g % p
            ks = np.arange(span, dtype=np.int64)
            table = np.zeros(p, dtype=np.int64)
            lead = 1
            for start in range(0, n, span):
                m = min(span, n - start)
                table[powers[:m] * lead % p] = ks[:m] + start
                lead = lead * v % p
            self._index_table = table
        return self._index_table

    # -- cached tables ------------------------------------------------------

    def roots_of_unity(self) -> np.ndarray:
        """exp(2 pi i k/(p-1)) for k in [0, p-2]."""
        if self._roots is None:
            n = self.p - 1
            self._roots = np.exp(2j * np.pi * np.arange(n) / n)
        return self._roots

    def chi_values(self, j: int) -> np.ndarray:
        """Value table chi_j(r) for residues r in [0, p-1]."""
        j %= self.p - 1
        tables = self._chi_tables
        vals = tables.get(j)
        if vals is None:
            ind = self.index_table()
            vals = np.zeros(self.p, dtype=np.complex128)
            vals[1:] = self.roots_of_unity()[(j * ind[1:]) % (self.p - 1)]
            tables[j] = vals
            if len(tables) > CHI_CACHE_SIZE:
                tables.popitem(last=False)
        else:
            tables.move_to_end(j)
        return vals

    def qr_signs(self) -> np.ndarray:
        """Legendre-symbol table over residues as int8; built from squares,
        independent of the discrete log. The squares of 1..(p-1)/2 are
        distinct mod p, so no deduplication is needed."""
        if self._qr_signs is None:
            p = self.p
            k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
            signs = np.full(p, -1, dtype=np.int8)
            signs[0] = 0
            signs[k * k % p] = 1
            self._qr_signs = signs
        return self._qr_signs

    def is_pr_table(self) -> np.ndarray:
        """Boolean table over residues: is a primitive root."""
        if self._is_pr is None:
            idx = self.index_table()
            n = self.p - 1
            coprime = np.ones(n, dtype=bool)
            for q in self.p1_primes:
                coprime[::q] = False
            table = np.zeros(self.p, dtype=bool)
            table[1:] = coprime[idx[1:]]
            self._is_pr = table
        return self._is_pr


@dataclass(frozen=True, eq=False)
class Character:
    ctx: PrimeContext
    j: int

    @property
    def order(self) -> int:
        n = self.ctx.p - 1
        return n // math.gcd(self.j, n)

    @property
    def is_principal(self) -> bool:
        return self.j == 0

    def power(self, k: int) -> "Character":
        return Character(self.ctx, (self.j * k) % (self.ctx.p - 1))

    def conjugate(self) -> "Character":
        return Character(self.ctx, (-self.j) % (self.ctx.p - 1))

    def __call__(self, m: int) -> complex:
        return char_eval(self, m)


def build_context(p: int) -> PrimeContext:
    """Context for an odd prime modulus, 3 <= p < 2^63."""
    if p < 3 or p >= 1 << 63:
        raise ValueError("modulus must be an odd prime in [3, 2^63)")
    if p % 2 == 0:
        raise ValueError("modulus must be an odd prime")
    # p - 1 is factored once; least_primitive_root tests p for primality
    p1 = arith.factorize(p - 1)
    return PrimeContext(
        p=p,
        generator=arith.least_primitive_root(p, p1),
        p1_factorization=p1,
    )


def char_eval(chi: Character, m: int) -> complex:
    ctx = chi.ctx
    r = m % ctx.p
    if r == 0:
        return 0j
    return complex(ctx.chi_values(chi.j)[r])


def characters_of_order(ctx: PrimeContext, d: int) -> list[Character]:
    """The phi(d) characters of exact order d, ascending by index j."""
    n = ctx.p - 1
    if d < 1 or n % d != 0:
        raise ValueError("order must divide p-1")
    step = n // d
    js = sorted(step * k for k in range(d) if math.gcd(k, d) == 1)
    return [Character(ctx, j) for j in js]


def principal(ctx: PrimeContext) -> Character:
    return Character(ctx, 0)


def quadratic(ctx: PrimeContext) -> Character:
    return Character(ctx, (ctx.p - 1) // 2)

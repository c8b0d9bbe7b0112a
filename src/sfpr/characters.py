"""Dirichlet characters mod an odd prime p, represented by exponent index.

A character is a pair (context, j) with 0 <= j <= p-2: writing m = g^k for the
context's fixed least primitive root g, chi_j(m) = exp(2 pi i j k / (p-1)), and
chi_j(m) = 0 when p | m. j = 0 is the principal character, j = (p-1)/2 the
quadratic one (it coincides with the Legendre symbol).

Discrete logs come from a full lookup table for p up to the table threshold
(default 2^20), filled in numpy blocks of about sqrt(p) consecutive powers of
the generator, and from baby-step giant-step above it. Both backends are built
lazily; a context stays lightweight until something asks for an index.

Per-character tables (values over all p residues and their prefix sums) are
held in a least-recently-used cache of CHI_CACHE_SIZE entries per context, so
they take at most CHI_CACHE_SIZE * 16 p bytes however many characters are
visited. A factored character sum uses at most two of them, the values and
prefix of one character, and only when an interval reaches p, so one sum
never evicts its own tables.
"""

from __future__ import annotations

import cmath
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
    "TABLE_THRESHOLD",
    "CHI_CACHE_SIZE",
]

TABLE_THRESHOLD = 1 << 20
CHI_CACHE_SIZE = 4


@dataclass(eq=False)
class PrimeContext:
    """Fixed data for one modulus: p, the factored p-1, a generator, and
    lazily-built discrete-log and character-value tables."""

    p: int
    generator: int
    p1_factorization: arith.Factorization
    table_threshold: int = TABLE_THRESHOLD
    cache: dict = field(default_factory=dict, repr=False)

    _index_table: np.ndarray | None = field(default=None, repr=False)
    _baby: dict | None = field(default=None, repr=False)
    _giant_mul: int = field(default=0, repr=False)
    _baby_span: int = field(default=0, repr=False)
    _roots: np.ndarray | None = field(default=None, repr=False)
    _chi_tables: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _qr_signs: np.ndarray | None = field(default=None, repr=False)
    _is_pr: np.ndarray | None = field(default=None, repr=False)

    @property
    def p1_primes(self) -> tuple[int, ...]:
        return self.p1_factorization.primes

    @property
    def has_index_table(self) -> bool:
        return self.p <= self.table_threshold

    # -- discrete logarithm -------------------------------------------------

    def index(self, m: int) -> int:
        """k with generator^k = m (mod p), 0 <= k <= p-2."""
        r = m % self.p
        if r == 0:
            raise ValueError("index undefined for multiples of p")
        if self.has_index_table:
            return int(self.index_table()[r])
        return self._index_bsgs(r)

    def index_table(self) -> np.ndarray:
        """ind[r] = index(r) for residues r in [1, p-1], ind[0] = 0; table
        backend only."""
        if not self.has_index_table:
            raise ValueError("index table requires the full-index backend")
        if self._index_table is None:
            # blocks of span = isqrt(p-1)+1 consecutive powers: block i is
            # g^(i span) * (g^0 .. g^(span-1)) mod p, one numpy product each;
            # the products stay below p^2 < 2^63 for any p whose table fits
            # in memory
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

    def _index_bsgs(self, r: int) -> int:
        p, g = self.p, self.generator
        if self._baby is None:
            span = math.isqrt(p - 1) + 1
            baby = {}
            v = 1
            for j in range(span):
                baby.setdefault(v, j)
                v = v * g % p
            self._baby = baby
            self._baby_span = span
            self._giant_mul = pow(g, (p - 1) - span % (p - 1), p)
        baby, span, shift = self._baby, self._baby_span, self._giant_mul
        v = r
        for i in range(span + 1):
            j = baby.get(v)
            if j is not None:
                return (i * span + j) % (p - 1)
            v = v * shift % p
        raise ArithmeticError(f"bsgs missed {r} mod {p}")

    # -- cached tables ------------------------------------------------------

    def roots_of_unity(self) -> np.ndarray:
        """exp(2 pi i k/(p-1)) for k in [0, p-2]."""
        if self._roots is None:
            n = self.p - 1
            self._roots = np.exp(2j * np.pi * np.arange(n) / n)
        return self._roots

    def _chi_table(self, key: tuple, build) -> np.ndarray:
        tables = self._chi_tables
        table = tables.get(key)
        if table is None:
            table = build()
            tables[key] = table
            if len(tables) > CHI_CACHE_SIZE:
                tables.popitem(last=False)
        else:
            tables.move_to_end(key)
        return table

    def chi_values(self, j: int) -> np.ndarray:
        """Value table chi_j(r) for residues r in [0, p-1]; table backend only."""
        if not self.has_index_table:
            raise ValueError("value table requires the full-index backend")
        j %= self.p - 1

        def build():
            vals = np.zeros(self.p, dtype=np.complex128)
            vals[1:] = self.roots_of_unity()[(j * self.index_table()[1:]) % (self.p - 1)]
            return vals

        return self._chi_table(("values", j), build)

    def chi_prefix(self, j: int) -> np.ndarray:
        """C[r] = sum_{m <= r} chi_j(m) over one period, r in [0, p-1]; table
        backend only."""
        j %= self.p - 1
        return self._chi_table(("prefix", j), lambda: np.cumsum(self.chi_values(j)))

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
        """Boolean table over residues: is a primitive root; table backend only."""
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


def build_context(p: int, table_threshold: int = TABLE_THRESHOLD) -> PrimeContext:
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
        table_threshold=table_threshold,
    )


def char_eval(chi: Character, m: int) -> complex:
    ctx = chi.ctx
    r = m % ctx.p
    if r == 0:
        return 0j
    if ctx.has_index_table:
        return complex(ctx.chi_values(chi.j)[r])
    n = ctx.p - 1
    k = (chi.j * ctx.index(r)) % n
    return cmath.exp(2j * cmath.pi * k / n)


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

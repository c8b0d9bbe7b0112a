"""Dirichlet characters mod an odd prime p, represented by exponent index.

A character is a pair (context, j) with 0 <= j <= p-2: writing m = g^k for the
context's fixed least primitive root g, chi_j(m) = exp(2 pi i j k / (p-1)), and
chi_j(m) = 0 when p | m. j = 0 is the principal character, j = (p-1)/2 the
quadratic one (it coincides with the Legendre symbol).

Discrete logs come from a full lookup table for p up to the table threshold
(default 2^20) and from baby-step giant-step above it. Both backends are built
lazily; a context stays lightweight until something asks for an index.
"""

from __future__ import annotations

import cmath
import math
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
]

TABLE_THRESHOLD = 1 << 20


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
    _chi_vals: dict = field(default_factory=dict, repr=False)
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
            table = self._index_table
            if table is None:
                table = self._build_index_table()
            return int(table[r])
        return self._index_bsgs(r)

    def _build_index_table(self) -> np.ndarray:
        p, g = self.p, self.generator
        table = np.zeros(p, dtype=np.int64)
        v = 1
        for k in range(p - 1):
            table[v] = k
            v = v * g % p
        self._index_table = table
        return table

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

    def chi_values(self, j: int) -> np.ndarray:
        """Value table chi_j(r) for residues r in [0, p-1]; table backend only."""
        if not self.has_index_table:
            raise ValueError("value table requires the full-index backend")
        j %= self.p - 1
        vals = self._chi_vals.get(j)
        if vals is None:
            idx = self._index_table
            if idx is None:
                idx = self._build_index_table()
            vals = np.zeros(self.p, dtype=np.complex128)
            vals[1:] = self.roots_of_unity()[(j * idx[1:]) % (self.p - 1)]
            self._chi_vals[j] = vals
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
        """Boolean table over residues: is a primitive root; table backend only."""
        if self._is_pr is None:
            idx = self._index_table
            if idx is None:
                idx = self._build_index_table()
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
    if p % 2 == 0 or not arith.is_prime(p):
        raise ValueError("modulus must be an odd prime")
    return PrimeContext(
        p=p,
        generator=arith.least_primitive_root(p),
        p1_factorization=arith.factorize(p - 1),
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

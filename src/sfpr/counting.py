"""Counting and locating primitive roots inside restricted sets.

The exact decomposition over character order classes,

    N(x) = (phi(n)/n) * sum_{d | n} (mu(d)/phi(d)) * sum_{chi of order d} S_chi(x),

n = p-1 and S_chi the character sum over the target family, turns each count
into a finite character-sum evaluation. Only square-free d survive, so the
identity is a weight vector over the R = rad(n) characters chi_j, j = (n/R) k
for k in [0, R), those of square-free order d = R/gcd(k, R): w[k] =
mu(d)/phi(d) (pr_decomposition), and N(x) = (phi(n)/n) * (w . S).

All the S_chi come from one transform (family_charsums): h[r], the number of
the family's members up to x congruent to r mod p, is folded onto discrete
logs mod R, since chi_j(m) = e(k ind(m)/R), and its length-R DFT is every
S_{chi_j}(x) at once. The square-free and square-full histograms come from
periodicity mod p without visiting the members (O(sqrt(x p)) and O(sqrt(x))
entries); the q^2 r^3 family walks its O(sqrt(x)) members as runs. Memory is
O(p) beyond those and the sieve tables of sqrt(x) and x^(1/3) entries; the
transform is O(R log R).

Two independent routes keep every count an executable identity. The brute
route walks the members (the walk histograms of sfpr.squarefull) and adds
the counts of the residue classes that are primitive roots. The FFT spectrum
is checked against the factored sums of charsums, in one batched call, on a
fixed sample of its R characters: the principal one (k = 0), the quadratic
one (k = R/2) and CHECK_SAMPLE more drawn by a random.Random seeded from (p,
x, target), or all R when R <= CHECK_SAMPLE + 2. A relative mismatch of
CHECK_RTOL or more raises ArithmeticError.

Each least element is the first primitive root along a fixed ascending list
of candidates, tested against the distinct primes of p - 1 by
arith.is_primitive_root. Each list has one source, started on first use and
drawn from once per process, so every search shares what was drawn: the
square-full non-squares of squarefull.squarefull_stream for g_sf(p), the
square-free m >= 2 (squarefull.squarefree_numbers), and the non-squares from 2
for g(p), the n-th being n + round(sqrt(n)). Dropping the squares is exact
for every odd p: a square is 0 or a quadratic residue mod p, and 2 | p - 1,
so its order divides (p - 1)/2 and it is never a primitive root.

Scans find all three for a whole block of 4096 primes at once, in numpy
lanes. The distinct primes of every p - 1, and so omega(p - 1), come from one
sieve over the block's span (arith.prime_factors_lanes). Every candidate is
m = a^2 b with b square-free, so (m|p) = (b|p), a product of symbols (l|p),
each read from p mod 4l by quadratic reciprocity (arith.legendre_lanes):
residues and multiples of p are dropped without a power, and 2 | p - 1 makes
the non-residues pass the test at q = 2. Perfect powers are dropped without
a power too: if m = c^G and an odd prime s divides both G and p - 1, then
m^((p-1)/s) = c^(p-1) = 1, so m is never a primitive root (8, 27, 32, 125
and 128, the first square-full candidates, are all powers). Both rules are
bit masks: a prime's non-residue ells and a candidate's b are packed into
uint64 words, whose common bits must be odd in number, and the odd primes s
of p - 1 and of G must have no bit in common. The odd q run as int64 power
lanes (arith.pow_mod_lanes), exact up to arith.MAX_INT64_MODULUS, over a
head of _LANE_HEAD candidates, built once before any worker forks; the few
primes still open after it go on along heads twice as long, to
SEARCH_CEILING, so every prime of a block is found in lanes. The scalar
routes of _KINDS answer `least` and cross-check the lanes: every prime of a
block with g_sf(p) >= p, and CROSS_CHECK_SAMPLE more drawn by a
random.Random seeded from the block's first prime, is rebuilt once on
build_context (p - 1 factored by arith.factorize); its lane row of the
primes of p - 1 and each least element searched must equal the context's,
or ArithmeticError names p and what differed.

The blocks are contiguous slices of one sieve of [lo, hi]. One worker,
_least_block, turns a block into its payload: CSV text for scan_range,
(p, g_sf(p)) pairs for hypothesis_scan. Workers (never more than there are
blocks) pull blocks, the parent keeps payloads in block order, so output is
deterministic for any worker count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import arith, squarefull
from .characters import PrimeContext, build_context
from .charsums import (
    sum_char_prime_powerful,
    sum_char_squarefree,
    sum_char_squarefull,
)

__all__ = [
    "CountReport",
    "pr_decomposition",
    "family_charsums",
    "FAMILIES",
    "METHODS",
    "count_by_target",
    "least_squarefull_pr",
    "least_squarefree_pr",
    "least_csv",
    "scan_range",
    "hypothesis_scan",
    "BLOCK_SIZE",
]

BLOCK_SIZE = 4096
SEARCH_CEILING = 1 << 32
CHECK_SAMPLE = 8
CHECK_RTOL = 1e-9
CROSS_CHECK_SAMPLE = 32


def pr_decomposition(ctx: PrimeContext) -> np.ndarray:
    """Weights w[k] = mu(d)/phi(d), k in [0, R), R = rad(n), n = p - 1, of
    the primitive-root indicator (phi(n)/n) sum_k w[k] chi_{(n/R) k}(m): the
    characters of square-free order d = R/gcd(k, R), the only ones weighed."""
    # the square-free d | n with mu(d) and phi(d), one prime of n at a time
    terms = [(1, 1, 1)]
    for q in ctx.p1_primes:
        terms += [(d * q, -mu, phi * (q - 1)) for d, mu, phi in terms]
    at = np.full(terms[-1][0], len(terms) - 1)  # d's place in terms: bit i if prime i divides d
    for i, q in enumerate(ctx.p1_primes):
        at[::q] -= 1 << i
    return np.array([mu / phi for _, mu, phi in terms])[at]


@dataclass(frozen=True)
class CountReport:
    p: int
    x: int
    target: str
    method: str
    brute_count: int | None
    charsum_value: float | None
    residual: float | None
    characters_used: int
    # wall-clock seconds of each route; the CLI leaves them out of its JSON
    elapsed_brute: float | None
    elapsed_charsum: float | None


# -- families: members up to x, counted by residue mod p ---------------------
#
# Each family has two histograms h[r], the number of its members m <= x with
# m = r mod p. The walk histogram of sfpr.squarefull visits the members
# themselves; the brute route reads it, and so do the direct character sums.
# The charsum route reads the periodic one, which the square-free and
# square-full families give by Mobius inversion and periodicity in O(p)
# memory without visiting their members; the q^2 r^3 family, O(sqrt(x))
# members, has only its walk.


def _squarefree_histogram(p: int, x: int) -> np.ndarray:
    """mu^2(m) = sum_{d^2 | m} mu(d): each d <= sqrt(x) puts mu(d) on the
    X = x // d^2 multiples k d^2, which cover every class X // p times plus
    the classes k d^2 mod p for k <= X % p. O(sqrt(x p)) entries in all."""
    h = np.zeros(p, dtype=np.int64)
    d, big_x, w = squarefull.squarefree_runs(x)
    at_p = d % p == 0  # k d^2 = 0 mod p for every k
    h[0] += int(np.dot(w[at_p], big_x[at_p]))
    d, w, big_x = d[~at_p], w[~at_p], big_x[~at_p]
    h += int(np.dot(w, big_x // p))
    squarefull.add_runs(h, 1, d * d % p, big_x % p, w)
    return h


def _squarefull_histogram(p: int, x: int) -> np.ndarray:
    """m = a^2 b^3, b square-free: for each b the a^2 b^3 mod p, a <= A =
    isqrt(x // b^3), repeat with period p in a. A full period puts 1 on 0 and
    2 on each r with (r|p) = (b|p); the last A % p values of a are added as
    a run. O(x^(1/3) + sqrt(x)) entries in all."""
    h = np.zeros(p, dtype=np.int64)
    b, big_a = squarefull.squarefull_runs(x)
    at_p = b % p == 0
    h[0] += int(big_a[at_p].sum())
    b, big_a = b[~at_p], big_a[~at_p]
    squares = np.zeros(p, dtype=bool)
    squares[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    periods = big_a // p
    b_square = squares[b % p]
    h[0] += int(periods.sum())
    h[1:] += np.where(squares[1:], 2 * periods[b_square].sum(), 2 * periods[~b_square].sum())
    squarefull.add_runs(h, 2, b**3 % p, big_a % p, np.ones(len(b), dtype=np.int64))
    return h


# target -> (walk histogram, periodic histogram, character sum with a direct
# and a factored route); the one registry of target families, read by verify,
# the CLI and the tests too. Plain tuples, because perfbench's tracer swaps
# wrapped functions into module-level tuples by rebuilding them as tuples
FAMILIES = {
    "squarefull": (squarefull.squarefull_walk, _squarefull_histogram, sum_char_squarefull),
    "S": (squarefull.prime_powerful_walk, squarefull.prime_powerful_walk, sum_char_prime_powerful),
    "squarefree": (squarefull.squarefree_walk, _squarefree_histogram, sum_char_squarefree),
}
METHODS = ("brute", "charsum", "both")  # the routes of count_by_target, in the CLI's order


def _family(target: str) -> tuple:
    try:
        return FAMILIES[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r}") from None


def family_charsums(ctx: PrimeContext, x: int, target: str) -> np.ndarray:
    """S[k] = sum of chi_{(n/R) k}(m) over the family's members m <= x, for
    the R characters of pr_decomposition: the length-R DFT of the histogram
    of their discrete logs mod R."""
    ind = ctx.logs_to(x)
    h = _family(target)[1](ctx.p, x)
    rad = math.prod(ctx.p1_primes)
    sums = np.bincount(ind[1:] % rad, weights=h[1:], minlength=rad).astype(np.complex128)
    # unnormalised inverse transform in place: S[k] = sum_r sums[r] e^{2 pi i kr/R}
    return np.fft.ifft(sums, norm="forward", out=sums)


def _checked_characters(p: int, rad: int, x: int, target: str) -> list[int]:
    if rad <= CHECK_SAMPLE + 2:
        return list(range(rad))
    rng = random.Random(f"{p}:{x}:{target}")
    extra = [k for k in rng.sample(range(1, rad), CHECK_SAMPLE + 1) if k != rad // 2]
    return [0, rad // 2, *extra[:CHECK_SAMPLE]]


def _check_factored(ctx: PrimeContext, x: int, target: str, sums: np.ndarray) -> None:
    ks = _checked_characters(ctx.p, len(sums), x, target)
    js = [(ctx.p - 1) // len(sums) * k for k in ks]
    want = _family(target)[2](ctx, js, x, route="factored").value
    got = sums[ks]
    rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    bad = np.flatnonzero(~(rel < CHECK_RTOL))  # a NaN fails too
    if len(bad):
        i = bad[0]
        raise ArithmeticError(
            f"{target} sum of chi_{js[i]} mod {ctx.p} to x={x}: "
            f"FFT {got[i]} vs factored {want[i]} (relative {rel[i]:.3e})"
        )


def _charsum_count(ctx: PrimeContext, x: int, target: str) -> tuple[float, int]:
    sums = family_charsums(ctx, x, target)
    _check_factored(ctx, x, target, sums)
    w = pr_decomposition(ctx)
    n = ctx.p - 1
    total = np.dot(w, sums) * arith.euler_phi(n) / n
    if abs(total.imag) > 1e-6 * len(w):
        raise ArithmeticError(f"imaginary drift {total.imag} in charsum count")
    return float(total.real), len(w)


def _brute_count(ctx: PrimeContext, x: int, target: str) -> int:
    return int(_family(target)[0](ctx.p, x)[ctx.is_pr_table].sum())


def count_by_target(ctx: PrimeContext, x: int, target: str, method: str = "both") -> CountReport:
    """Primitive roots <= x in the target family of FAMILIES: "squarefull",
    "S" (q^2 r^3, q and r prime) or "squarefree", by the brute route, the
    charsum route or both; both read discrete logs (PrimeContext.logs_to)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    ctx.logs_to(x)
    brute = charsum = residual = None
    tb = tc = None
    chars = 0
    if method in ("brute", "both"):
        t0 = time.perf_counter()
        brute = _brute_count(ctx, x, target)
        tb = time.perf_counter() - t0
    if method in ("charsum", "both"):
        t0 = time.perf_counter()
        charsum, chars = _charsum_count(ctx, x, target)
        tc = time.perf_counter() - t0
    if brute is not None and charsum is not None:
        residual = abs(charsum - brute)
    return CountReport(ctx.p, x, target, method, brute, charsum, residual, chars, tb, tc)


# -- least elements ---------------------------------------------------------


@functools.cache
def _memo(kind: str) -> tuple[list[int], Iterator[int]]:
    """The candidates of kind drawn so far, and its source."""
    return [], _KINDS[kind][0]()


def _candidates(kind: str) -> Iterator[int]:
    """The candidate list of kind (a key of _KINDS), ascending, drawn from
    its source once per process and shared by every search."""
    drawn, source = _memo(kind)
    i = 0
    while True:
        if i == len(drawn):
            drawn.append(next(source))
        yield drawn[i]
        i += 1


def _first_pr(kind: str, p: int, qs) -> int:
    """The first primitive root mod p along the candidate list of kind, up to
    SEARCH_CEILING; qs are the distinct primes of p - 1."""
    for m in _candidates(kind):
        if m > SEARCH_CEILING:
            raise ArithmeticError(
                f"no primitive root mod {p} among the candidates below {SEARCH_CEILING}"
            )
        if arith.is_primitive_root(m, p, qs):
            return m


def least_squarefull_pr(ctx: PrimeContext) -> int:
    """g_sf(p): the first primitive root along the square-full non-squares."""
    return _first_pr("squarefull", ctx.p, ctx.p1_primes)


def least_squarefree_pr(ctx: PrimeContext) -> int:
    """The least square-free primitive root mod p."""
    return _first_pr("squarefree", ctx.p, ctx.p1_primes)


# kind -> (source of its candidates, k, scalar route on a context), in the
# CSV's column order: every candidate is m = a^2 b, b square-free, each prime
# of b <= m^(1/k). A source is built on first use, so the square-full stream
# starts then, not at import. The scalar routes, public functions that
# perfbench's tracer rebinds in the tuples, answer `least` and cross-check.
_KINDS = {
    "squarefull": (
        lambda: (m for m in squarefull.squarefull_stream() if math.isqrt(m) ** 2 != m),
        3,
        least_squarefull_pr,
    ),
    "squarefree": (squarefull.squarefree_numbers, 1, least_squarefree_pr),
    "nonsquare": (  # the n-th non-square is n + round(sqrt(n))
        lambda: (n + (1 + math.isqrt(4 * n)) // 2 for n in itertools.count(1)),
        1,
        lambda ctx: ctx.generator,  # arith.least_primitive_root
    ),
}


# -- least elements of a prime range ----------------------------------------

CSV_HEADER = "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"


def _csv_row(p: int, g_sf: int, g_free: int, g: int, omega: int) -> str:
    return f"{p},{g_sf},{g_free},{g},{g_sf / p:.6f},{omega}\n"


def least_csv(p: int) -> str:
    """The CSV of one prime: its row by the scalar routes on build_context,
    for any odd prime p < 2^63."""
    ctx = build_context(p)
    row = _csv_row(p, *(least(ctx) for _, _, least in _KINDS.values()), len(ctx.p1_primes))
    return CSV_HEADER + "\n" + row


def _prime_blocks(lo: int, hi: int) -> list[np.ndarray]:
    """The primes of [lo, hi] as consecutive int64 slices of one window
    sieve, BLOCK_SIZE primes each; hi past what the lanes can square is
    refused before the sieve runs."""
    if hi > arith.MAX_INT64_MODULUS:
        raise ValueError(
            f"need limit <= {arith.MAX_INT64_MODULUS}: the lane search squares residues in int64"
        )
    ps = arith.sieve_primes(hi, lo)
    return [ps[i : i + BLOCK_SIZE] for i in range(0, len(ps), BLOCK_SIZE)]


# -- least primitive roots of a block, in lanes -------------------------------
#
# A pass takes the next columns of the head for every prime still open,
# _LANE_FIRST in the first and twice as many in each next: most primes stop
# at their first non-residues. Primes still open at the end of a head go on
# along the next head, twice as long, to SEARCH_CEILING.

_LANE_HEAD = 512
_LANE_FIRST = 2


class _Head(NamedTuple):
    cands: np.ndarray  # the candidates m, int64 ascending
    ells: np.ndarray  # the primes l with l^k <= the last m
    b_words: np.ndarray  # per m, bit i set where ells[i] divides m an odd number of times
    s_primes: np.ndarray  # the odd primes s <= max(r): fewer than 64, as r < 63
    r_mask: np.ndarray  # one word per m, bit i set where s_primes[i] divides r


def _words(bits: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix packed into uint64 words, bit i of a row in
    word i // 64, at least one word per row."""
    n, k = bits.shape
    padded = np.zeros((n, 64 * max(1, -(-k // 64))), dtype=bool)
    padded[:, :k] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


@functools.cache
def _lane_head(kind: str, level: int = 0) -> _Head:
    """The first _LANE_HEAD * 2^level candidates m of kind and their
    factorization over the ells: m = a^2 b with the primes of b among the
    ells, so (m|p) = prod over l | b of (l|p); and m is an r-th power, so it
    is no primitive root mod any p with gcd(r, p - 1) > 1, i.e. with an odd
    prime s dividing both r and p - 1."""
    k = _KINDS[kind][1]
    cands = np.fromiter(_candidates(kind), dtype=np.int64, count=_LANE_HEAD << level)
    top = int(cands[-1])
    ells = arith.sieve_primes(max(2, arith.icbrt(top) if k == 3 else top))
    # the exponent of every l in every m, raised while l^(e+1) | m
    exps = np.zeros((len(ells), len(cands)), dtype=np.int64)
    row, col = np.nonzero(cands % ells[:, None] == 0)
    power = ells[row]
    while len(row):
        exps[row, col] += 1
        power *= ells[row]
        deeper = cands[col] % power == 0
        row, col, power = row[deeper], col[deeper], power[deeper]
    in_b = exps % 2
    # a prime above the ells has l^3 > m, so it divides the square-full m
    # exactly twice; with k = 1 every prime of m is an ell
    beyond = (ells[:, None] ** exps).prod(axis=0) < cands
    g = np.gcd(np.gcd.reduce(exps, axis=0), np.where(beyond, 2, 0))
    odd_power = g // (g & -g)
    s_primes = arith.sieve_primes(max(2, int(odd_power.max())))[1:]
    head = _Head(
        cands, ells, _words(in_b.T == 1), s_primes, _words(odd_power[:, None] % s_primes == 0)[:, 0]
    )
    for a in head:
        a.flags.writeable = False
    return head


def _prime_bits(head: _Head, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every prime of p: the words of the head's ells l with (l|p) = -1,
    in the bit order of head.b_words, and the bits of the head's s_primes
    that divide p - 1, in the order of head.r_mask."""
    nonres = np.stack([arith.legendre_lanes(int(ell), p) == -1 for ell in head.ells], axis=1)
    return _words(nonres), _words((p[:, None] - 1) % head.s_primes == 0)[:, 0]


def _usable(head: _Head, nonres: np.ndarray, s_mask: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """[m passes both rules] for the rows of _prime_bits and the head's
    columns m in [lo, hi): (m|p) = -1, i.e. an odd number of the ells of b
    have (l|p) = -1, and no odd prime s divides both r and p - 1."""
    odd = np.bitwise_xor.reduce(nonres[:, None, :] & head.b_words[None, lo:hi, :], axis=2)
    return (np.bitwise_count(odd) & 1 == 1) & (s_mask[:, None] & head.r_mask[lo:hi] == 0)


def _lane_search(ps: np.ndarray, kind: str, p1_primes: np.ndarray) -> np.ndarray:
    """The first primitive root along the candidate list of kind (a key of
    _KINDS) for every prime p of the ascending int64 block ps (odd primes,
    each <= arith.MAX_INT64_MODULUS); p1_primes is
    arith.prime_factors_lanes(ps - 1). A prime with none up to SEARCH_CEILING
    raises ArithmeticError."""
    g = np.zeros(len(ps), dtype=np.int64)
    live = np.arange(len(ps))
    lo, width, level = 0, _LANE_FIRST, 0
    while len(live):
        head = _lane_head(kind, level)
        end = int(np.searchsorted(head.cands, SEARCH_CEILING, side="right"))
        # the open primes' rows: p, the exponents (p - 1)/q for the odd q of
        # p - 1 (column 0 of p1_primes is 2 for every even p - 1; the rows are
        # zero-padded), their number, and the bits of _prime_bits
        p, odd_q = ps[live], p1_primes[live, 1:]
        exp_q = (p[:, None] - 1) // np.maximum(odd_q, 1)
        n_odd = np.count_nonzero(odd_q, axis=1)
        nonres, s_mask = _prime_bits(head, p)
        while lo < end and len(live):
            hi, width = min(lo + width, end), 2 * width
            m = head.cands[lo:hi]
            usable = _usable(head, nonres, s_mask, lo, hi)
            if m.max() >= p[0]:
                usable &= m % p[:, None] != 0
            row, col = np.nonzero(usable)  # row-major: columns ascend within a row
            # one lane per usable (p, m) and odd q | p - 1, a pair's lanes adjacent
            k = n_odd[row]
            stop = np.cumsum(k)
            # lane t of a pair reads exp_q[row, t]
            at = np.arange(k.sum()) - np.repeat(stop - k - row * exp_q.shape[1], k)
            exp = exp_q.ravel()[at]
            one = arith.pow_mod_lanes(np.repeat(m[col], k), exp, np.repeat(p[row], k)) == 1
            ones = np.concatenate([[0], np.cumsum(one)])
            ok = ones[stop] == ones[stop - k]  # no lane of the pair gave 1
            row, col = row[ok], col[ok]
            first = np.flatnonzero(np.diff(row, prepend=-1))  # each row's first success
            g[live[row[first]]] = m[col[first]]
            keep = np.ones(len(live), dtype=bool)
            keep[row[first]] = False
            live, p, exp_q, n_odd, nonres, s_mask = (
                a[keep] for a in (live, p, exp_q, n_odd, nonres, s_mask)
            )
            lo = hi
        if len(live) and end < len(head.cands):
            raise ArithmeticError(
                f"no primitive root mod {ps[live[0]]} among the candidates below {SEARCH_CEILING}"
            )
        level += 1
    return g


def _cross_check(ps: np.ndarray, p1_primes: np.ndarray, g: dict[str, np.ndarray]) -> None:
    """Every prime of the block with g_sf(p) >= p, and CROSS_CHECK_SAMPLE
    more seeded from its first prime, rebuilt once on build_context: its row
    of p1_primes must be the context's primes of p - 1, and g[kind] its
    scalar route's least element, or ArithmeticError."""
    reported = np.flatnonzero(g["squarefull"] >= ps).tolist()
    sample = random.Random(f"{int(ps[0])}").sample(range(len(ps)), min(len(ps), CROSS_CHECK_SAMPLE))
    for i in sorted(set(reported) | set(sample)):
        p = int(ps[i])
        ctx = build_context(p)
        row = p1_primes[i]
        pairs = [("primes of p - 1", tuple(row[row > 0].tolist()), ctx.p1_primes)]
        pairs += [(kind, int(g[kind][i]), _KINDS[kind][2](ctx)) for kind in g]
        for what, lanes, scalar in pairs:
            if lanes != scalar:
                raise ArithmeticError(
                    f"at p = {p} the lanes give {what} {lanes}, the scalar route {scalar}"
                )


def _least_block(ps: np.ndarray, kinds: tuple[str, ...], payload):
    """payload(ps, g, p1_primes) for the block ps, where g[kind] is the least
    element of kind for every prime of the block: one factorization of the
    p - 1 and one lane search per kind, cross-checked."""
    p1_primes = arith.prime_factors_lanes(ps - 1)
    g = {kind: _lane_search(ps, kind, p1_primes) for kind in kinds}
    _cross_check(ps, p1_primes, g)
    return payload(ps, g, p1_primes)


def _csv_rows(ps: np.ndarray, g: dict[str, np.ndarray], p1_primes: np.ndarray) -> str:
    omega = np.count_nonzero(p1_primes, axis=1)
    columns = (ps, *(g[kind] for kind in _KINDS), omega)
    return "".join(itertools.starmap(_csv_row, zip(*(c.tolist() for c in columns))))


def _exceptional(ps: np.ndarray, g: dict[str, np.ndarray], p1_primes) -> list[tuple[int, int]]:
    big = g["squarefull"] >= ps
    return list(zip(ps[big].tolist(), g["squarefull"][big].tolist()))


def _least_blocks(lo: int, hi: int, kinds: tuple[str, ...], payload, jobs: int, progress) -> list:
    """The payload of every block of the primes in [lo, hi] (_least_block),
    in block order for any worker count; a pool only when it pays, and never
    more workers than blocks."""
    blocks = _prime_blocks(lo, hi)
    for kind in kinds:  # built once, so forked workers inherit the heads
        _lane_head(kind, 0)
    worker = functools.partial(_least_block, kinds=kinds, payload=payload)
    results = []
    with contextlib.ExitStack() as stack:
        mapped = map(worker, blocks)
        if jobs > 1 and len(blocks) > 1:
            import multiprocessing  # here only: its import costs every other command 5 ms
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(min(jobs, len(blocks))))
            mapped = pool.imap(worker, blocks)
        for i, res in enumerate(mapped):
            results.append(res)
            if progress:
                progress(i + 1, len(blocks))
    return results


def scan_range(lo: int, hi: int, jobs: int = 1, progress=None) -> str:
    """The CSV of every prime in [lo, hi], ascending, the same for any
    worker count."""
    if lo < 3 or hi < lo:
        raise ValueError("need 3 <= lo <= hi")
    return CSV_HEADER + "\n" + "".join(_least_blocks(lo, hi, tuple(_KINDS), _csv_rows, jobs, progress))


def hypothesis_scan(limit: int, jobs: int = 1, progress=None) -> list[tuple[int, int]]:
    """(p, g_sf(p)) for every prime p <= limit with g_sf(p) >= p, ascending."""
    if limit < 3:
        raise ValueError("need limit >= 3")
    blocks = _least_blocks(3, limit, ("squarefull",), _exceptional, jobs, progress)
    return [pair for block in blocks for pair in block]

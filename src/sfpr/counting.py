"""Counting and locating primitive roots inside restricted sets.

The exact decomposition over character order classes,

    N(x) = (phi(n)/n) * sum_{d | n} (mu(d)/phi(d)) * sum_{chi of order d} S_chi(x),

n = p-1 and S_chi the character sum over the target family, turns each count
into a finite character-sum evaluation. Only square-free d survive, so the
identity is a weight vector over the characters chi_j: w[j] = mu(d)/phi(d)
where the order d of chi_j is square-free and 0 elsewhere (pr_decomposition),
with rad(n) nonzero entries, and N(x) = (phi(n)/n) * (w . S).

All the S_chi come from one transform (family_charsums): h[r], the number of
the family's members up to x congruent to r mod p, is moved onto discrete
logs, and the length-n DFT of that histogram is S_{chi_j}(x) for every j at
once. The square-free and square-full histograms come from periodicity mod p
without visiting the members (O(sqrt(x p)) and O(sqrt(x)) entries); the q^2 r^3
family, O(sqrt(x)) members, is enumerated. Memory is O(p) beyond the sieve
tables of sqrt(x) and x^(1/3) entries, and the transform is O(p log p).

Two independent routes keep every count an executable identity. The brute
route enumerates the members and looks each one up in the primitive-root
table. The FFT spectrum is
checked against the factored sums of charsums on a fixed sample of
characters: the principal one, the quadratic one and CHECK_SAMPLE more drawn
by a random.Random seeded from (p, x, target), or every character when
p - 1 <= CHECK_SAMPLE + 2. A relative mismatch of CHECK_RTOL or more raises
ArithmeticError.

The least square-full primitive root g_sf(p) is searched along one ascending
list of the square-full numbers that are not perfect squares, shared by every
prime of the process and grown on demand from a single square-full stream.
Dropping the squares is exact for every odd p: a square is 0 or a quadratic
residue mod p, and 2 | p - 1, so its order divides (p - 1)/2 and it is never
a primitive root; the first hit is the same as along the full stream.

The hypothesis scan finds g_sf(p) for a whole block of primes at once, in
numpy lanes. The distinct primes of every p - 1 come from one sieve over the
block's span (arith.prime_factors_lanes). Every candidate is m = a^2 b^3 with b
square-free, so (m|p) = (b|p), a product of symbols (l|p) for a few small
primes l, each read from p mod 4l by quadratic reciprocity
(arith.legendre_lanes): residues and multiples of p are dropped without a
power, and 2 | p - 1 makes the non-residues pass the test at q = 2. The odd q
run as int64 square-and-multiply lanes (arith.pow_mod_lanes), exact up to
arith.MAX_INT64_MODULUS, over a head of _LANE_HEAD candidates; the few primes
still open after it finish on the scalar least_squarefull_pr. Every prime the
block reports (g_sf(p) >= p), and CROSS_CHECK_SAMPLE more drawn by a
random.Random seeded from the block's first prime, is derived again by
least_squarefull_pr on build_context, whose factorization comes from
arith.factorize; a disagreement raises ArithmeticError.

Scans over prime ranges shard into contiguous blocks of 4096 primes, slices of
one sieve; workers (never more than there are blocks) pull blocks, the parent
flushes results in block order, so output is deterministic for any worker
count.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import arith, squarefull
from .characters import Character, PrimeContext, build_context
from .charsums import (
    sum_char_prime_powerful,
    sum_char_squarefree,
    sum_char_squarefull,
)

__all__ = [
    "CountReport",
    "ScanRecord",
    "HypothesisReport",
    "pr_decomposition",
    "pr_indicator_charsum",
    "family_charsums",
    "count_squarefull_pr",
    "count_prime_powerful_pr",
    "count_squarefree_pr",
    "least_squarefull_pr",
    "least_squarefree_pr",
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
    """Weights w[j], j in [0, p-2], of the primitive-root indicator
    (phi(n)/n) sum_j w[j] chi_j(m): mu(d)/phi(d) for chi_j of square-free
    order d, 0 otherwise."""
    w = ctx.cache.get("pr_decomposition")
    if w is None:
        n = ctx.p - 1
        by_gcd = np.zeros(n + 1)  # chi_j has order n / gcd(j, n)
        for d in arith.divisors(n):
            mu = arith.mobius(d)
            if mu:
                by_gcd[n // d] = mu / arith.euler_phi(d)
        w = by_gcd[np.gcd(np.arange(n, dtype=np.int64), n)]
        ctx.cache["pr_decomposition"] = w
    return w


def pr_indicator_charsum(ctx: PrimeContext, m: int) -> float:
    """Character-sum indicator: 1.0 when m is a primitive root, else 0.0,
    up to float error."""
    if m % ctx.p == 0:
        return 0.0
    n = ctx.p - 1
    w = pr_decomposition(ctx)
    js = np.flatnonzero(w)
    total = np.dot(w[js], ctx.roots_of_unity()[js * ctx.index(m) % n])
    return float(total.real) * arith.euler_phi(n) / n


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
    elapsed_brute: float | None
    elapsed_charsum: float | None


# -- families: members up to x, reduced mod p ---------------------------------
#
# Each family has two views. The brute route walks its members' residues, in
# chunks. The charsum route needs only h[r], the number of members congruent
# to r mod p, which the square-free and square-full families give by
# periodicity in O(p) memory without visiting their members.

_RUN_CHUNK = 1 << 20  # entries per vectorised batch of residue runs
_D_RANGE = 1 << 16  # square-free d processed per batch


def _squarefull_residues(p: int, x: int) -> Iterator[np.ndarray]:
    """m = a^2 b^3 with b square-free, one chunk per b."""
    sf = squarefull.squarefree_table(arith.icbrt(x))
    for b in np.flatnonzero(sf):
        cube = int(b) ** 3
        a = np.arange(1, math.isqrt(x // cube) + 1, dtype=np.int64)
        yield (a * a % p) * (cube % p) % p


def _prime_powerful_residues(p: int, x: int) -> Iterator[np.ndarray]:
    yield np.array(squarefull.enumerate_prime_powerful(x), dtype=np.int64) % p


def _squarefree_residues(p: int, x: int) -> Iterator[np.ndarray]:
    yield np.flatnonzero(squarefull.squarefree_table(x)) % p


def _add_runs(h: np.ndarray, power: int, steps, counts, weights) -> None:
    """h[k^power * step mod p] += weight for k in [1, count], for each
    (step, count, weight); every count < p, so k^power * step < p^2."""
    p = len(h)
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _RUN_CHUNK, "right")))
        c = counts[lo:hi]
        k = np.arange(1, int(c.sum()) + 1, dtype=np.int64) - np.repeat(np.cumsum(c) - c, c)
        res = k**power % p * np.repeat(steps[lo:hi], c) % p
        h += np.bincount(res, weights=np.repeat(weights[lo:hi], c), minlength=p).astype(np.int64)
        lo = hi


def _squarefree_histogram(p: int, x: int) -> np.ndarray:
    """mu^2(m) = sum_{d^2 | m} mu(d): each d <= sqrt(x) puts mu(d) on the
    X = x // d^2 multiples k d^2, which cover every class X // p times plus
    the classes k d^2 mod p for k <= X % p. O(sqrt(x p)) entries in all."""
    h = np.zeros(p, dtype=np.int64)
    mu = arith.mobius_table(math.isqrt(x))
    full = 0
    for lo in range(1, len(mu), _D_RANGE):
        d = np.flatnonzero(mu[lo : lo + _D_RANGE]) + lo
        w = mu[d].astype(np.int64)
        big_x = x // (d * d)
        at_p = d % p == 0  # k d^2 = 0 mod p for every k
        h[0] += int(np.dot(w[at_p], big_x[at_p]))
        d, w, big_x = d[~at_p], w[~at_p], big_x[~at_p]
        full += int(np.dot(w, big_x // p))
        _add_runs(h, 1, d * d % p, big_x % p, w)
    h += full
    return h


def _squarefull_histogram(p: int, x: int) -> np.ndarray:
    """m = a^2 b^3, b square-free: for each b the a^2 b^3 mod p, a <= A =
    isqrt(x // b^3), repeat with period p in a. A full period puts 1 on 0 and
    2 on each r with (r|p) = (b|p); the last A % p values of a are added as
    a run. O(x^(1/3) + sqrt(x)) entries in all."""
    h = np.zeros(p, dtype=np.int64)
    b = np.flatnonzero(squarefull.squarefree_table(arith.icbrt(x)))
    big_a = np.array([math.isqrt(x // int(v) ** 3) for v in b], dtype=np.int64)
    at_p = b % p == 0
    h[0] += int(big_a[at_p].sum())
    b, big_a = b[~at_p], big_a[~at_p]
    squares = np.zeros(p, dtype=bool)
    squares[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    periods = big_a // p
    b_square = squares[b % p]
    h[0] += int(periods.sum())
    h[1:] += np.where(squares[1:], 2 * periods[b_square].sum(), 2 * periods[~b_square].sum())
    cube = b % p * (b % p) % p * (b % p) % p
    _add_runs(h, 2, cube, big_a % p, np.ones(len(b), dtype=np.int64))
    return h


def _prime_powerful_histogram(p: int, x: int) -> np.ndarray:
    (residues,) = _prime_powerful_residues(p, x)
    return np.bincount(residues, minlength=p)


# target -> (member residues, residue histogram, factored character sum); plain
# tuples, because perfbench's tracer swaps wrapped functions into module-level
# tuples by rebuilding them as tuples
_FAMILIES = {
    "squarefull": (_squarefull_residues, _squarefull_histogram, sum_char_squarefull),
    "S": (_prime_powerful_residues, _prime_powerful_histogram, sum_char_prime_powerful),
    "squarefree": (_squarefree_residues, _squarefree_histogram, sum_char_squarefree),
}


def _family(target: str) -> tuple:
    try:
        return _FAMILIES[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r}") from None


def family_charsums(ctx: PrimeContext, x: int, target: str) -> np.ndarray:
    """S[j] = sum of chi_j(m) over the family's members m <= x, for every
    j in [0, p-2]: the DFT of the histogram of their discrete logs."""
    if x < 1:
        raise ValueError("need x >= 1")
    p, n = ctx.p, ctx.p - 1
    if p > arith.MAX_INT64_MODULUS:
        raise ValueError(f"charsum route needs p <= {arith.MAX_INT64_MODULUS}")
    h = _family(target)[1](p, x)
    if ctx.has_index_table:
        hist = np.zeros(n)
        hist[ctx.index_table()[1:]] = h[1:]
    else:
        rs = np.flatnonzero(h[1:]) + 1
        logs = np.array([ctx.index(int(r)) for r in rs], dtype=np.int64)
        hist = np.bincount(logs, weights=h[rs], minlength=n)
    # unnormalised inverse transform: S[j] = sum_k hist[k] e^{2 pi i jk/n}
    return np.fft.ifft(hist, norm="forward")


def _checked_characters(p: int, x: int, target: str) -> list[int]:
    n = p - 1
    if n <= CHECK_SAMPLE + 2:
        return list(range(n))
    rng = random.Random(f"{p}:{x}:{target}")
    extra = [j for j in rng.sample(range(1, n), CHECK_SAMPLE + 1) if j != n // 2]
    return [0, n // 2, *extra[:CHECK_SAMPLE]]


def _check_factored(ctx: PrimeContext, x: int, target: str, sums: np.ndarray) -> None:
    sum_fn = _family(target)[2]
    for j in _checked_characters(ctx.p, x, target):
        want = sum_fn(ctx, Character(ctx, j), x, route="factored").value
        rel = abs(sums[j] - want) / max(1.0, abs(want))
        if not rel < CHECK_RTOL:
            raise ArithmeticError(
                f"{target} sum of chi_{j} mod {ctx.p} to x={x}: "
                f"FFT {sums[j]} vs factored {want} (relative {rel:.3e})"
            )


def _charsum_count(ctx: PrimeContext, x: int, target: str) -> tuple[float, int]:
    sums = family_charsums(ctx, x, target)
    _check_factored(ctx, x, target, sums)
    w = pr_decomposition(ctx)
    chars = int(np.count_nonzero(w))
    n = ctx.p - 1
    total = np.dot(w, sums) * arith.euler_phi(n) / n
    if abs(total.imag) > 1e-6 * max(1, chars):
        raise ArithmeticError(f"imaginary drift {total.imag} in charsum count")
    return float(total.real), chars


def _brute_count(ctx: PrimeContext, x: int, target: str) -> int:
    total = 0
    for residues in _family(target)[0](ctx.p, x):
        if ctx.has_index_table:
            total += int(np.count_nonzero(ctx.is_pr_table()[residues]))
        else:
            distinct, mult = np.unique(residues, return_counts=True)
            total += sum(
                int(c) for r, c in zip(distinct, mult) if arith.is_primitive_root(int(r), ctx)
            )
    return total


def _count(ctx: PrimeContext, x: int, target: str, method: str) -> CountReport:
    if x < 1:
        raise ValueError("need x >= 1")
    if method not in ("brute", "charsum", "both"):
        raise ValueError(f"unknown method {method!r}")
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


def count_squarefull_pr(ctx: PrimeContext, x: int, method: str = "both") -> CountReport:
    """Square-full primitive roots <= x."""
    return _count(ctx, x, "squarefull", method)


def count_prime_powerful_pr(ctx: PrimeContext, x: int, method: str = "both") -> CountReport:
    """Primitive roots <= x of the shape q^2 r^3, q and r prime."""
    return _count(ctx, x, "S", method)


def count_squarefree_pr(ctx: PrimeContext, x: int, method: str = "both") -> CountReport:
    """Square-free primitive roots <= x."""
    return _count(ctx, x, "squarefree", method)


def count_by_target(ctx: PrimeContext, x: int, target: str, method: str = "both") -> CountReport:
    return _count(ctx, x, target, method)


# -- least elements ---------------------------------------------------------


# Candidates of least_squarefull_pr (see the module docstring). A fixed
# sequence, so sharing it across callers changes no result; its source stream
# starts on first use, not at import.
_NONSQUARE_SQUAREFULL: list[int] = []
_CANDIDATE_STEP = 256
_squarefull_source: Iterator[int] | None = None


def _nonsquare_squarefull(count: int) -> list[int]:
    """The shared candidate list, grown in steps of _CANDIDATE_STEP entries
    until it holds count entries or more."""
    global _squarefull_source
    cands = _NONSQUARE_SQUAREFULL
    if len(cands) < count:
        if _squarefull_source is None:
            _squarefull_source = squarefull.squarefull_stream()
        want = max(count, len(cands) + _CANDIDATE_STEP)
        for m in _squarefull_source:
            if math.isqrt(m) ** 2 != m:
                cands.append(m)
                if len(cands) == want:
                    break
    return cands


def least_squarefull_pr(ctx: PrimeContext, ceiling: int = SEARCH_CEILING) -> int:
    """g_sf(p): the first primitive root along the shared ascending list of
    square-full non-squares. Skipping the squares (1 among them) is exact for
    every odd p: a square is 0 or a quadratic residue mod p, so its order
    divides (p-1)/2 and it is never a primitive root."""
    cands = _NONSQUARE_SQUAREFULL
    i = 0
    while True:
        if i == len(cands):
            _nonsquare_squarefull(i + 1)
        m = cands[i]
        if m > ceiling:
            raise ArithmeticError(f"no square-full primitive root below {ceiling}")
        if arith.is_primitive_root(m, ctx):
            return m
        i += 1


# Candidates of least_squarefree_pr: the square-free numbers >= 2, ascending,
# shared like the square-full list and regrown from a table twice as long.
_SQUAREFREE: list[int] = []


def _squarefree_above_one(count: int) -> list[int]:
    """The shared square-free list, grown until it holds count entries or
    more."""
    cands = _SQUAREFREE
    top = max(64, 2 * (cands[-1] if cands else 0))
    while len(cands) < count:
        cands[:] = (np.flatnonzero(squarefull.squarefree_table(top)[2:]) + 2).tolist()
        top *= 2
    return cands


def least_squarefree_pr(ctx: PrimeContext) -> int:
    """The least square-free primitive root mod p."""
    cands = _SQUAREFREE
    i = 0
    while True:
        if i == len(cands):
            _squarefree_above_one(i + 1)
        if arith.is_primitive_root(cands[i], ctx):
            return cands[i]
        i += 1


# -- deterministic sharded scans --------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    p: int
    g_squarefull: int
    g_squarefree: int
    g_least_pr: int
    omega_p_minus_1: int

    @property
    def ratio(self) -> float:
        return self.g_squarefull / self.p

    def csv_row(self) -> str:
        return (
            f"{self.p},{self.g_squarefull},{self.g_squarefree},"
            f"{self.g_least_pr},{self.ratio:.6f},{self.omega_p_minus_1}"
        )


CSV_HEADER = "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"


def scan_record(p: int) -> ScanRecord:
    ctx = build_context(p)
    return ScanRecord(
        p=p,
        g_squarefull=least_squarefull_pr(ctx),
        g_squarefree=least_squarefree_pr(ctx),
        g_least_pr=ctx.generator,
        omega_p_minus_1=len(ctx.p1_primes),
    )


def _prime_blocks(lo: int, hi: int, block_size: int) -> list[np.ndarray]:
    """The primes of [lo, hi] as consecutive int64 slices of the sieve."""
    ps = arith.sieve_primes(hi) if hi >= 2 else np.array([], dtype=np.int64)
    ps = ps[ps >= lo]
    return [ps[i : i + block_size] for i in range(0, len(ps), block_size)]


def _scan_block(block: np.ndarray) -> list[ScanRecord]:
    return [scan_record(int(p)) for p in block]


# -- least square-full primitive roots of a block, in lanes --------------------
#
# Every candidate is m = a^2 b^3 with b square-free, so for p not dividing m,
# (m|p) = (b|p), the product of (l|p) over the primes l | b, which quadratic
# reciprocity gives from p mod 4l. A quadratic residue is never a primitive
# root, and a non-residue passes the test at q = 2, since 2 | p - 1; only the
# odd q | p - 1 are left, and they run as int64 lanes, one per (prime,
# candidate, q). A pass takes the next columns of the head for every prime
# still open, _LANE_FIRST in the first pass and twice as many in each next,
# because most primes stop at their first non-residues. The primes still open
# after the _LANE_HEAD candidates of the head go to least_squarefull_pr.

_LANE_HEAD = 512
_LANE_FIRST = 2


@dataclass(frozen=True)
class _Factored:
    """What arith.is_primitive_root reads of a context: p and the distinct
    primes of p - 1."""

    p: int
    p1_primes: tuple[int, ...]


@functools.cache
def _lane_head() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first _LANE_HEAD shared candidates m as int64, the primes l up to
    their cube root (l | b implies l^3 | m), and the 0/1 matrix
    [l divides m an odd number of times], i.e. [l | b], one row per l."""
    cands = np.array(_nonsquare_squarefull(_LANE_HEAD)[:_LANE_HEAD], dtype=np.int64)
    ells = arith.sieve_primes(max(2, arith.icbrt(int(cands[-1]))))
    in_b = np.zeros((len(ells), len(cands)), dtype=np.int64)
    for row, ell in zip(in_b, ells):
        rest = cands.copy()
        hit = rest % ell == 0
        while hit.any():
            row[hit] ^= 1
            rest[hit] //= ell
            hit = rest % ell == 0
    for a in (cands, ells, in_b):
        a.flags.writeable = False
    return cands, ells, in_b


def _lane_search(ps: np.ndarray) -> np.ndarray:
    """g_sf(p) for every prime p of the ascending int64 block ps (odd primes,
    each <= arith.MAX_INT64_MODULUS)."""
    cands, ells, in_b = _lane_head()
    p1_primes = arith.prime_factors_lanes(ps - 1)
    odd_q = p1_primes[:, 1:]  # column 0 is 2 for every even p - 1
    symbols = np.stack([arith.legendre_lanes(int(ell), ps) for ell in ells], axis=1)
    nonres = (symbols == -1).astype(np.int64)
    g = np.zeros(len(ps), dtype=np.int64)
    live = np.arange(len(ps))
    lo, width = 0, _LANE_FIRST
    while lo < len(cands) and len(live):
        hi, width = lo + width, 2 * width
        m = cands[lo:hi]
        p = ps[live]
        usable = (nonres[live] @ in_b[:, lo:hi]) % 2 == 1
        usable &= m % p[:, None] != 0
        row, col = np.nonzero(usable)  # row-major: columns ascend within a row
        q = odd_q[live[row]]
        lane = q > 0
        pp = np.broadcast_to(p[row, None], q.shape)[lane]
        mm = np.broadcast_to(m[col, None], q.shape)[lane]
        one = np.zeros(q.shape, dtype=bool)
        one[lane] = arith.pow_mod_lanes(mm, (pp - 1) // q[lane], pp) == 1
        ok = ~one.any(axis=1)
        found, first = np.unique(row[ok], return_index=True)
        g[live[found]] = m[col[ok][first]]
        keep = np.ones(len(live), dtype=bool)
        keep[found] = False
        live = live[keep]
        lo = hi
    for i in live:
        row = p1_primes[i]
        g[i] = least_squarefull_pr(_Factored(int(ps[i]), tuple(row[row > 0].tolist())))
    return g


def _hypothesis_block(ps: np.ndarray) -> list[tuple[int, int]]:
    """(p, g_sf(p)) for the primes of the block with g_sf(p) >= p. The lane
    result of every such prime, and of CROSS_CHECK_SAMPLE primes drawn by a
    random.Random seeded from the block's first prime, is derived again by
    least_squarefull_pr on build_context (factorization by arith.factorize);
    a disagreement raises ArithmeticError."""
    g = _lane_search(ps)
    reported = np.flatnonzero(g >= ps).tolist()
    sample = random.Random(f"{int(ps[0])}").sample(range(len(ps)), min(len(ps), CROSS_CHECK_SAMPLE))
    for i in sorted(set(reported) | set(sample)):
        p = int(ps[i])
        want = least_squarefull_pr(build_context(p))
        if want != g[i]:
            raise ArithmeticError(f"g_sf({p}): lane search gives {g[i]}, scalar route {want}")
    return [(int(ps[i]), int(g[i])) for i in reported]


def _run_blocks(worker, blocks, jobs: int, progress=None):
    """Ordered map over blocks; pool only when it pays."""
    results = []
    if jobs <= 1 or len(blocks) <= 1:
        for i, b in enumerate(blocks):
            results.append(worker(b))
            if progress:
                progress(i + 1, len(blocks))
        return results
    with multiprocessing.get_context("fork").Pool(min(jobs, len(blocks))) as pool:
        for i, res in enumerate(pool.imap(worker, blocks)):
            results.append(res)
            if progress:
                progress(i + 1, len(blocks))
    return results


def scan_range(
    lo: int, hi: int, jobs: int = 1, block_size: int = BLOCK_SIZE, progress=None
) -> list[ScanRecord]:
    """ScanRecord for every prime in [lo, hi], ascending, worker-count
    independent."""
    if lo < 3 or hi < lo:
        raise ValueError("need 3 <= lo <= hi")
    blocks = _prime_blocks(lo, hi, block_size)
    out: list[ScanRecord] = []
    for chunk in _run_blocks(_scan_block, blocks, jobs, progress):
        out.extend(chunk)
    return out


@dataclass(frozen=True)
class HypothesisReport:
    limit: int
    exceptional: tuple[tuple[int, int], ...]  # (p, g_squarefull) with g >= p
    largest: int | None


def hypothesis_scan(
    limit: int, jobs: int = 1, block_size: int = BLOCK_SIZE, progress=None
) -> HypothesisReport:
    """All primes p <= limit with g_sf(p) >= p."""
    if limit < 3:
        raise ValueError("need limit >= 3")
    if limit > arith.MAX_INT64_MODULUS:
        raise ValueError(
            f"need limit <= {arith.MAX_INT64_MODULUS}: the lane search squares residues in int64"
        )
    blocks = _prime_blocks(3, limit, block_size)
    exceptional: list[tuple[int, int]] = []
    for chunk in _run_blocks(_hypothesis_block, blocks, jobs, progress):
        exceptional.extend(chunk)
    largest = exceptional[-1][0] if exceptional else None
    return HypothesisReport(limit, tuple(exceptional), largest)

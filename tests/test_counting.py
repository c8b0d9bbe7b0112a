"""Counting identities, least-element searches, sharded scans.

The least-element table is checked against an order-based brute scan written
here from scratch: no character machinery, no primitive-root helpers from the
package, just repeated multiplication.
"""

import functools
import hashlib
import json
import math
import multiprocessing
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpr import arith, counting, squarefull
from sfpr.analytics import MAIN_TERMS, main_term_by_target
from sfpr.characters import build_context
from sfpr.charsums import sum_char_prime_powerful, sum_char_squarefree, sum_char_squarefull
from sfpr.counting import (
    CSV_HEADER,
    count_by_target,
    family_charsums,
    hypothesis_scan,
    least_csv,
    least_squarefree_pr,
    least_squarefull_pr,
    pr_decomposition,
    scan_range,
)


# -- independent oracles ----------------------------------------------------


def oracle_order(a, p):
    v, k = a % p, 1
    while v != 1:
        v = v * a % p
        k += 1
    return k


def oracle_logs(g, p):
    logs, v = {}, 1
    for k in range(p - 1):
        logs[v] = k
        v = v * g % p
    return logs


def oracle_is_squarefull(n):
    if n == 1:
        return True
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e < 2:
                return False
        d += 1
    return n == 1


def oracle_is_squarefree(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def oracle_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


@functools.lru_cache(maxsize=None)
def oracle_legendre(a, p):
    """(a|p) by Euler's criterion, p an odd prime."""
    t = pow(a, (p - 1) // 2, p)
    return t - p if t > 1 else t


def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_members(target, x):
    if target == "squarefull":
        return [m for m in range(1, x + 1) if oracle_is_squarefull(m)]
    if target == "squarefree":
        return [m for m in range(1, x + 1) if oracle_is_squarefree(m)]
    primes = [q for q in range(2, x + 1) if q * q <= x and oracle_is_prime(q)]
    return sorted(q * q * r**3 for q in primes for r in primes if q * q * r**3 <= x)


def oracle_least_squarefull_pr(p):
    m = 1
    while True:
        m += 1
        if oracle_is_squarefull(m) and m % p != 0 and oracle_order(m, p) == p - 1:
            return m


def oracle_least_squarefree_pr(p):
    m = 1
    while True:
        m += 1
        if oracle_is_squarefree(m) and m % p != 0 and oracle_order(m, p) == p - 1:
            return m


# -- indicator --------------------------------------------------------------


def indicator(ctx, m):
    """(phi(n)/n) sum_k w[k] chi_j(m), n = p - 1, j = (n/R) k, with the R
    weights of pr_decomposition and chi_j(m) = exp(2 pi i j ind(m) / n): 1
    when m is a primitive root mod p and 0 otherwise, up to float error."""
    if m % ctx.p == 0:
        return 0.0
    n = ctx.p - 1
    w = pr_decomposition(ctx)
    js = n // len(w) * np.arange(len(w))
    total = np.dot(w, np.exp(2j * np.pi * (js * ctx.index_table[m % ctx.p] % n) / n))
    return float(total.real) * arith.euler_phi(n) / n


def test_indicator_frozen_p7():
    ctx = build_context(7)
    assert indicator(ctx, 3) == pytest.approx(1.0, abs=1e-12)
    assert indicator(ctx, 2) == pytest.approx(0.0, abs=1e-12)
    assert indicator(ctx, 7) == 0.0


@given(st.sampled_from([7, 11, 13, 101]), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_indicator_matches_order_test(p, m):
    ctx = build_context(p)
    want = 1.0 if m % p and oracle_order(m, p) == p - 1 else 0.0
    assert indicator(ctx, m) == pytest.approx(want, abs=1e-9)


def characters_of_order(ctx, d):
    """The indices j of the phi(d) characters of exact order d, ascending:
    j = k (p-1)/d with gcd(k, d) = 1."""
    step = (ctx.p - 1) // d
    return sorted(step * k for k in range(d) if math.gcd(k, d) == 1)


def test_pr_decomposition_weights_by_order():
    # the weight of every character j in [0, p-2] by its order; the R = rad(n)
    # weights of pr_decomposition are those at j = (n/R) k, and every other
    # character weighs 0
    for p in (3, 5, 7, 13, 31, 101, 211, 1009):
        ctx = build_context(p)
        n = p - 1
        want = np.zeros(n)
        for d in oracle_divisors(n):
            for j in characters_of_order(ctx, d):
                want[j] = arith.mobius(d) / arith.euler_phi(d)
        w = pr_decomposition(ctx)
        rad = np.prod(ctx.p1_primes)
        assert len(w) == rad and np.count_nonzero(w) == rad
        assert np.array_equal(w, want[:: n // rad])
        assert np.count_nonzero(want) == rad


# -- counts -----------------------------------------------------------------


def test_count_squarefull_frozen():
    ctx = build_context(7)
    r = count_by_target(ctx, 108, "squarefull")
    assert r.brute_count == 1
    assert r.charsum_value == pytest.approx(1.0, abs=1e-9)
    assert r.residual < 1e-9
    assert count_by_target(ctx, 100, "squarefull").brute_count == 0
    assert count_by_target(build_context(3), 8, "squarefull").brute_count == 1


def test_count_prime_powerful_frozen():
    assert count_by_target(build_context(7), 108, "S").brute_count == 1
    r = count_by_target(build_context(5), 32, "S")
    assert r.brute_count == 1
    assert r.residual < 1e-9


def test_count_squarefree_frozen():
    assert count_by_target(build_context(7), 10, "squarefree").brute_count == 3
    r = count_by_target(build_context(5), 3, "squarefree")
    assert r.brute_count == 2
    assert r.residual < 1e-9


def test_count_brute_matches_filter_oracle():
    ctx = build_context(11)
    x = 5000
    sf_pr = sum(
        1
        for m in range(1, x + 1)
        if oracle_is_squarefull(m) and m % 11 and oracle_order(m, 11) == 10
    )
    assert count_by_target(ctx, x, "squarefull", method="brute").brute_count == sf_pr


@pytest.mark.parametrize("p", [101, 1009])
@pytest.mark.parametrize("target", ["squarefull", "S", "squarefree"])
def test_residual_small_on_grid(p, target):
    ctx = build_context(p)
    x = 10**4 if target == "squarefree" else 10**5
    r = count_by_target(ctx, x, target)
    assert r.residual is not None
    assert r.residual < 1e-6 * r.characters_used
    assert r.charsum_value == pytest.approx(r.brute_count, abs=1e-6 * r.characters_used)


_FACTORED = {"squarefull": sum_char_squarefull, "S": sum_char_prime_powerful, "squarefree": sum_char_squarefree}


def full_spectrum(ctx, x, target):
    """S[j] for every j in [0, p-2]: the family's periodic histogram
    scattered onto discrete logs and transformed at length p - 1."""
    hist = np.zeros(ctx.p - 1, dtype=np.complex128)
    hist[ctx.index_table[1:]] = counting.FAMILIES[target][1](ctx.p, x)[1:]
    return np.fft.ifft(hist, norm="forward")


def assert_folded(ctx, x, target, sums, atol):
    """sums has the R = rad(p - 1) entries of the full spectrum at j = (n/R) k."""
    rad = math.prod(ctx.p1_primes)
    assert sums.shape == (rad,)
    full = full_spectrum(ctx, x, target)
    assert np.allclose(sums, full[:: (ctx.p - 1) // rad], rtol=0, atol=atol)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
@pytest.mark.parametrize("x", [100, 10**4])
@pytest.mark.parametrize("target", ["squarefull", "S", "squarefree"])
def test_family_charsums_full_spectrum(p, x, target):
    # every character's sum, from the full spectrum, against the factored
    # route; the folded spectrum is its entries of square-free order
    ctx = build_context(p)
    full = full_spectrum(ctx, x, target)
    assert full.shape == (p - 1,)
    assert full[0] == sum(1 for m in oracle_members(target, x) if m % p)
    for j in range(p - 1):
        want = _FACTORED[target](ctx, [j], x, route="factored").value[0]
        assert abs(full[j] - want) <= 1e-9 * max(1.0, abs(want)), j
    sums = family_charsums(ctx, x, target)
    assert sums[0] == full[0]
    assert_folded(ctx, x, target, sums, atol=1e-9)


@pytest.mark.parametrize("p", [5, 13, 17, 97, 101, 1009])
@pytest.mark.parametrize("target", ["squarefull", "S", "squarefree"])
def test_family_charsums_fold_matches_full_spectrum(p, target):
    # n/R is 2, 2, 8, 16, 10 and 4: the fold mod R and the length-R transform
    # give every (n/R)-th entry of the length-n one
    ctx = build_context(p)
    for x in (1, 100, 10**4, 10**6):
        assert_folded(ctx, x, target, family_charsums(ctx, x, target), atol=1e-9)


def test_family_charsums_fold_matches_full_spectrum_large():
    # p - 1 = 2^2 3^3 7 19 73, so R = 58254 = n/18; x from a seeded draw, and
    # every folded entry is compared, with a bound of 1e-12 a member
    ctx = build_context(1048573)
    rng = random.Random(1048573)
    for target in ("squarefull", "S", "squarefree"):
        x = rng.randrange(10**5, 10**6)
        members = counting.FAMILIES[target][1](ctx.p, x).sum()
        assert_folded(ctx, x, target, family_charsums(ctx, x, target), atol=1e-12 * members)


@pytest.mark.parametrize("p", [101, 1048573])
def test_charsum_check_rejects_fold_by_a_divisor_of_rad(monkeypatch, p):
    # a planted mutant folds the logs mod R/q for a prime q | R, and keeps the
    # length R: the factored check must see it, for every q
    ctx = build_context(p)
    for q in ctx.p1_primes:

        def fold_by_rad_over_q(ctx, x, target):
            h = counting.FAMILIES[target][1](ctx.p, x)
            rad = math.prod(ctx.p1_primes)
            sums = np.bincount(ctx.index_table[1:] % (rad // q), weights=h[1:], minlength=rad)
            return np.fft.ifft(sums, norm="forward")

        monkeypatch.setattr(counting, "family_charsums", fold_by_rad_over_q)
        for target in ("squarefull", "S", "squarefree"):
            with pytest.raises(ArithmeticError, match="FFT .* vs factored"):
                count_by_target(ctx, 10**5, target, method="charsum")


@pytest.mark.parametrize("run_chunk", [7, squarefull._RUN_CHUNK])
@pytest.mark.parametrize("p", [3, 5, 13, 101])
@pytest.mark.parametrize("target", ["squarefull", "S", "squarefree"])
def test_family_histogram_counts_members(monkeypatch, run_chunk, p, target):
    # x >= p^2 makes the square-free and square-full histograms use whole
    # periods; a batch of 7 entries splits every run across batches; both
    # the walk and the periodic histogram of each family are checked
    monkeypatch.setattr(squarefull, "_RUN_CHUNK", run_chunk)
    for x in (1, 2, 100, 10**4):
        want = np.bincount([m % p for m in oracle_members(target, x)], minlength=p)
        for histogram in counting.FAMILIES[target][:2]:
            assert np.array_equal(histogram(p, x), want), (histogram, x)


def test_family_charsums_match_power_oracle():
    # every S[j] at p = 211 from the members' logs, found by repeated
    # multiplication of the generator rather than from the table
    ctx = build_context(211)
    logs = oracle_logs(ctx.generator, 211)
    js = np.arange(210)
    for target in ("squarefull", "S", "squarefree"):
        ks = np.array([logs[m % 211] for m in oracle_members(target, 5000) if m % 211])
        want = np.exp(2j * np.pi * np.outer(js, ks) / 210).sum(axis=1)
        assert np.allclose(family_charsums(ctx, 5000, target), want, rtol=0, atol=1e-9)


def test_family_charsums_transform_in_place():
    # building the square-full histogram peaks at 25 bytes a residue; the fold
    # holds the histogram, the logs mod R and bincount's float copy of the
    # histogram (24 bytes a residue), and the spectrum overwrites the complex
    # fold of R entries. A complex buffer of p - 1 entries on top of those,
    # or a transform of that length into a new array, passes 32 bytes
    p = 1048573
    ctx = build_context(p)
    ctx.index_table
    tracemalloc.start()
    try:
        family_charsums(ctx, 10**6, "squarefull")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * p, f"{peak / p:.1f} bytes a residue"


def test_family_charsums_rejects_modulus_past_int64_products():
    # residues k * step mod p need k * step < 2^63; the first prime past
    # isqrt(2^63 - 1) is refused before any p-length table is allocated
    with pytest.raises(ValueError, match="MAX_LOG_P"):
        family_charsums(build_context(3037000507), 100, "S")


def test_charsum_check_rejects_wrong_spectrum(monkeypatch):
    ctx = build_context(101)
    good = family_charsums

    def off_by_one(ctx, x, target):
        sums = good(ctx, x, target)
        sums[0] += 1
        return sums

    monkeypatch.setattr(counting, "family_charsums", off_by_one)
    with pytest.raises(ArithmeticError, match="chi_0"):
        count_by_target(ctx, 10**4, "squarefull", method="charsum")


@pytest.mark.parametrize(
    "planted, named",
    [({3: 1, 7: 1}, "chi_30"), ({7: np.nan}, "chi_70"), ({5: np.nan, 6: 1}, "chi_50")],
)
def test_charsum_check_names_first_wrong_character(monkeypatch, planted, named):
    # at p = 101 every one of the R = 10 characters k, chi_{10 k}, is checked;
    # the first wrong one past k = 0 in their order is named, and a NaN is wrong
    ctx = build_context(101)
    good = family_charsums

    def planted_errors(ctx, x, target):
        sums = good(ctx, x, target)
        for k, err in planted.items():
            sums[k] += err
        return sums

    monkeypatch.setattr(counting, "family_charsums", planted_errors)
    with pytest.raises(ArithmeticError, match=f"{named} mod 101"):
        count_by_target(ctx, 10**4, "squarefull", method="charsum")


def test_checked_characters_fixed_sample():
    # k indexes the R = rad(p - 1) characters of pr_decomposition
    assert counting._checked_characters(11, 10, 100, "S") == list(range(10))
    assert counting._checked_characters(101, 10, 10**4, "S") == list(range(10))
    js = counting._checked_characters(4003, 4002, 10**6, "squarefree")
    assert js == counting._checked_characters(4003, 4002, 10**6, "squarefree")
    assert js[:2] == [0, 2001] and len(set(js)) == 10
    assert js != counting._checked_characters(4003, 4002, 10**6, "squarefull")
    ks = counting._checked_characters(1048573, 58254, 10**6, "S")
    assert ks[:2] == [0, 29127] and len(set(ks)) == 10 and max(ks) < 58254


def test_count_single_method_fields():
    ctx = build_context(13)
    r = count_by_target(ctx, 1000, "squarefull", method="charsum")
    assert r.brute_count is None and r.residual is None
    assert r.elapsed_charsum is not None and r.elapsed_brute is None
    r = count_by_target(ctx, 1000, "squarefull", method="brute")
    assert r.charsum_value is None and r.elapsed_charsum is None


def test_count_rejects():
    ctx = build_context(7)
    with pytest.raises(ValueError):
        count_by_target(ctx, 0, "squarefull")
    with pytest.raises(ValueError):
        count_by_target(ctx, 10, "powerful")
    with pytest.raises(ValueError):
        count_by_target(ctx, 10, "squarefull", method="fast")


def test_x_past_int64_refused():
    # at x >= 2^63, icbrt(x) >= 2^21 and b^3 overflows int64 in the square-full
    # runs; every route refuses such x with the bound named
    ctx = build_context(101)
    for target, (_, _, charsum) in counting.FAMILIES.items():
        for method in counting.METHODS:
            with pytest.raises(ValueError, match=r"x < 2\^63"):
                count_by_target(ctx, 1 << 63, target, method)
        with pytest.raises(ValueError, match=r"x < 2\^63"):
            family_charsums(ctx, 1 << 63, target)
        for route in ("direct", "factored"):
            with pytest.raises(ValueError, match=r"x < 2\^63"):
                charsum(ctx, [0], 1 << 63, route=route)


@pytest.mark.parametrize("x", [0, 1 << 63])
@pytest.mark.parametrize("target", list(MAIN_TERMS))
def test_main_term_x_outside_domain_refused(target, x):
    # the main terms check no x of their own: PrimeContext.logs_to refuses
    # it, with the bound named, before any main term is computed
    with pytest.raises(ValueError, match=r"1 <= x < 2\^63"):
        main_term_by_target(build_context(101), x, target)


# -- what the routes of each gate share ---------------------------------------
#
# The enumerations of sfpr.squarefull a route may read. A gate compares two
# routes; what both read is not checked by that gate. arith.sieve_primes is
# left out: every route reads it at some depth (through squarefree_table,
# mobius_table or prime_powerful_runs), and test_arith checks it against
# trial division on its own.
ENUMERATIONS = ("squarefree_table", "squarefull_runs", "squarefree_runs", "prime_powerful_runs")
GATES = {  # gate -> its two routes
    "brute vs charsum": ("brute", "charsum"),  # count_by_target's residual
    "charsum vs factored": ("charsum", "factored"),  # _check_factored
    "direct vs factored": ("direct", "factored"),  # the route identity of charsums
}
_ONE_WALK = "every route reads the family's one enumeration; ROADMAP item 7 adds a second"
_TABLE_VS_RUNS = "nothing: the walk reads the table of mu^2, the other route the Mobius runs"
# (target, gate) -> (the enumerations both routes read, why)
SHARED = {
    **{("squarefull", gate): ({"squarefull_runs", "squarefree_table"}, _ONE_WALK) for gate in GATES},
    **{("S", gate): ({"prime_powerful_runs"}, _ONE_WALK) for gate in GATES},
    ("squarefree", "brute vs charsum"): (set(), _TABLE_VS_RUNS),
    ("squarefree", "charsum vs factored"): (
        {"squarefree_runs"},
        "both sum the Mobius runs, which brute vs charsum checks against the table",
    ),
    ("squarefree", "direct vs factored"): (set(), _TABLE_VS_RUNS),
}


def _routes_read(monkeypatch, ctx, x, target):
    """route -> the ENUMERATIONS it reads, for the four routes of a count."""
    read = set()

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            read.add(name)
            return fn(*args)

        return wrapper

    # the run builders are memoized by x: a hit skips what they read, so each
    # route starts from empty memos and every read shows at any depth
    memos = (squarefull.squarefull_runs, squarefull.squarefree_runs, squarefull.prime_powerful_runs)
    for name in ENUMERATIONS:
        monkeypatch.setattr(squarefull, name, spy(name, getattr(squarefull, name)))
    charsum = counting.FAMILIES[target][2]
    routes = {
        "brute": lambda: counting._brute_count(ctx, x, target),
        "charsum": lambda: family_charsums(ctx, x, target),
        "factored": lambda: charsum(ctx, [0, 1], x, route="factored"),
        "direct": lambda: charsum(ctx, [0, 1], x, route="direct"),
    }
    out = {}
    for route, run in routes.items():
        read.clear()
        for memo in memos:
            memo.cache_clear()
        run()
        out[route] = set(read)
    return out


@pytest.mark.parametrize("target", list(counting.FAMILIES))
def test_shared_enumerations_ledger(monkeypatch, target):
    reads = _routes_read(monkeypatch, build_context(101), 10**5, target)
    for gate, (a, b) in GATES.items():
        shared, why = SHARED[target, gate]
        assert why
        assert reads[a] & reads[b] == shared, (gate, reads)


def test_count_matches_order_oracle_p211():
    ctx = build_context(211)
    for target in ("squarefull", "S", "squarefree"):
        want = sum(1 for m in oracle_members(target, 2000) if m % 211 and oracle_order(m, 211) == 210)
        r = count_by_target(ctx, 2000, target)
        assert r.brute_count == want
        assert r.charsum_value == pytest.approx(want, abs=1e-9)


# -- least elements ---------------------------------------------------------


def test_least_frozen_table():
    for p, (g_sf, g_free) in {3: (8, 2), 5: (8, 2), 7: (108, 3)}.items():
        ctx = build_context(p)
        assert least_squarefull_pr(ctx) == g_sf
        assert least_squarefree_pr(ctx) == g_free


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 41, 101, 257])
def test_least_matches_order_oracle(p):
    ctx = build_context(p)
    assert least_squarefull_pr(ctx) == oracle_least_squarefull_pr(p)
    assert least_squarefree_pr(ctx) == oracle_least_squarefree_pr(p)


def test_least_squarefull_ceiling(monkeypatch):
    monkeypatch.setattr(counting, "SEARCH_CEILING", 4)
    with pytest.raises(ArithmeticError):
        least_squarefull_pr(build_context(11))


def test_least_squarefull_every_prime_below_3000():
    ps = [p for p in range(3, 3000, 2) if oracle_is_prime(p)]
    assert len(ps) == 429
    for p in ps:
        assert least_squarefull_pr(build_context(p)) == oracle_least_squarefull_pr(p), p


def test_least_squarefree_every_prime_below_3000():
    ps = [p for p in range(3, 3000, 2) if oracle_is_prime(p)]
    for p in ps:
        assert least_squarefree_pr(build_context(p)) == oracle_least_squarefree_pr(p), p


def oracle_squarefull_table(top):
    """t[m] = [m is square-full] for 0 <= m <= top, by a sieve: no prime
    divides m exactly once, and every prime of a square-full m <= top is at
    most sqrt(top), so nothing is left after dividing out those primes."""
    rest = np.arange(top + 1)
    t = rest >= 1
    for q in filter(oracle_is_prime, range(2, math.isqrt(top) + 1)):
        t[q::q] &= np.arange(q, top + 1, q) % (q * q) == 0
        qe = q
        while qe <= top:
            rest[qe::qe] //= q
            qe *= q
    return t & (rest == 1)


# kind -> (the brute filter's range, its first members)
_CANDIDATE_ORACLE = {
    "squarefull": (3_700_000, [8, 27, 32, 72]),
    "squarefree": (5000, [2, 3, 5, 6]),
    "nonsquare": (5000, [2, 3, 5, 6]),
}


@pytest.mark.parametrize("kind", list(counting._KINDS))
def test_candidate_sources(kind):
    # every search walks one shared list per kind: the non-squares m >= 2
    # that are square-full, square-free or anything, by a brute filter
    top, head = _CANDIDATE_ORACLE[kind]
    keep = np.ones(top + 1, dtype=bool)
    keep[:2] = False
    keep[np.arange(math.isqrt(top) + 1) ** 2] = False
    if kind == "squarefull":
        keep &= oracle_squarefull_table(top)
    elif kind == "squarefree":
        keep &= [oracle_is_squarefree(m) for m in range(top + 1)]
    want = np.flatnonzero(keep).tolist()
    assert want[:4] == head and len(want) >= 2000
    assert [m for m, _ in zip(counting._candidates(kind), want)] == want


def test_hypothesis_scan_matches_pinned_pairs():
    pinned_file = Path(__file__).resolve().parent.parent / "perfbench" / "hypothesis_1100000.json"
    pinned = json.loads(pinned_file.read_text())
    assert len(pinned) == 114
    pairs = hypothesis_scan(1_100_000, jobs=2)
    assert [list(pair) for pair in pairs] == pinned
    assert pairs[-1][0] == 1052041


# -- the lane search of a block ---------------------------------------------

_LANE_LIMIT = 200_000


# kind of the lane search -> its scalar route on a context
_SCALAR = {
    "squarefull": least_squarefull_pr,
    "squarefree": least_squarefree_pr,
    "nonsquare": lambda ctx: ctx.generator,  # arith.least_primitive_root
}


def _lanes(ps, kind):
    return counting._lane_search(ps, kind, arith.prime_factors_lanes(ps - 1))


def test_lane_search_matches_scalar_route():
    assert set(_SCALAR) == set(counting._KINDS)
    blocks = counting._prime_blocks(3, _LANE_LIMIT)
    ps = np.concatenate(blocks)
    assert {3, 5, 7, 17, 257, 65537} <= set(ps.tolist())
    got = {kind: np.concatenate([_lanes(b, kind) for b in blocks]).tolist() for kind in _SCALAR}
    for i, p in enumerate(ps.tolist()):
        ctx = build_context(p)
        for kind, scalar in _SCALAR.items():
            assert got[kind][i] == scalar(ctx), (kind, p)


def test_block_factorization_matches_factorize():
    for block in counting._prime_blocks(3, _LANE_LIMIT):
        rows = arith.prime_factors_lanes(block - 1)
        for p, row in zip(block.tolist(), rows):
            assert tuple(row[row > 0].tolist()) == tuple(q for q, _ in arith.factorize(p - 1)), p


def _no_scalar_search(monkeypatch):
    monkeypatch.setattr(counting, "_first_pr", lambda *args: pytest.fail("scalar search called"))


def test_lane_tail_reached(monkeypatch):
    # 1052041 is the largest prime below 1.1e6 whose g_sf exceeds it: its
    # search runs past the first head into the longer ones, still in lanes
    ps = arith.sieve_primes(1052041)[-3:]
    want = [least_squarefull_pr(build_context(int(p))) for p in ps]
    _no_scalar_search(monkeypatch)
    got = _lanes(ps, "squarefull").tolist()
    assert got == want
    assert got[-1] > counting._lane_head("squarefull")[0][-1]


def test_lane_blocks_to_1052041_need_no_scalar_search(monkeypatch):
    pinned_file = Path(__file__).resolve().parent.parent / "perfbench" / "hypothesis_1100000.json"
    _no_scalar_search(monkeypatch)
    got = []
    for block in counting._prime_blocks(3, 1052041):
        g = _lanes(block, "squarefull")
        got += [[p, x] for p, x in zip(block.tolist(), g.tolist()) if x >= p]
    assert got == json.loads(pinned_file.read_text())


def test_lane_tail_of_every_kind(monkeypatch):
    # a head of 4 candidates sends most primes of every kind to the longer heads
    monkeypatch.setattr(counting, "_LANE_HEAD", 4)
    monkeypatch.setattr(counting, "_lane_head", functools.cache(counting._lane_head.__wrapped__))
    ps = arith.sieve_primes(5000)[1:]
    for kind, scalar in _SCALAR.items():
        assert len(counting._lane_head(kind)[0]) == 4
        want = [scalar(build_context(p)) for p in ps.tolist()]
        with monkeypatch.context() as m:
            _no_scalar_search(m)
            got = _lanes(ps, kind).tolist()
        assert got == want, kind
        assert max(got) > counting._lane_head(kind)[0][-1], kind


@pytest.mark.parametrize("p, g", [(7, 108), (1052041, None)])
def test_lane_search_stops_at_the_ceiling(monkeypatch, p, g):
    # the least square-full primitive root is found at the ceiling and refused
    # just below it, in the first head (7) and in a longer one (1052041)
    ps = np.array([p])
    g = g or least_squarefull_pr(build_context(p))
    assert (g > counting._lane_head("squarefull")[0][-1]) == (p > 7)
    monkeypatch.setattr(counting, "SEARCH_CEILING", g)
    assert _lanes(ps, "squarefull").tolist() == [g]
    monkeypatch.setattr(counting, "SEARCH_CEILING", g - 1)
    with pytest.raises(ArithmeticError, match=f"no primitive root mod {p} among"):
        _lanes(ps, "squarefull")


def test_lane_search_skips_multiples_of_p(monkeypatch):
    # 200 = 5^2 2^3 is a non-residue by its b = 2, (2|5) = -1, yet 0 mod 5;
    # 8 = 2^3 is a cube, but 3 does not divide 5 - 1
    cands, ells, in_b, odd_power = np.array([200, 8]), np.array([2]), np.array([[1, 1]]), np.array([1, 3])
    s_primes = np.array([3])
    words, r_mask = counting._words(in_b.T == 1), counting._words(odd_power[:, None] % s_primes == 0)[:, 0]
    head = counting._Head(cands, ells, words, s_primes, r_mask)
    monkeypatch.setattr(counting, "_lane_head", lambda kind, level=0: head)
    assert _lanes(np.array([5]), "squarefull").tolist() == [8]


def _odd_powers(head):
    """For every candidate m of the head, by factorize: the odd part r of
    the gcd of m's exponents, so that m is an r-th power."""
    gs = [math.gcd(*(e for _, e in arith.factorize(m))) for m in head.cands.tolist()]
    return np.array([g // (g & -g) for g in gs])


def _in_b(head):
    """[l divides m an odd number of times], by factorize, one row per ell l
    of the head and one column per candidate m."""
    exps = [dict(arith.factorize(m)) for m in head.cands.tolist()]
    return np.array([[e.get(ell, 0) % 2 for e in exps] for ell in head.ells.tolist()])


@pytest.mark.parametrize("kind", sorted(counting._KINDS))
def test_packed_rules_match_their_matrix_forms(kind):
    # the bit words give (nonres @ in_b) % 2 and gcd(r, p - 1) == 1 for every
    # prime of a seeded sample and every head candidate; the square-free and
    # non-square heads span 3 and 2 words of ells
    head = counting._lane_head(kind)
    words = {"squarefull": 1, "squarefree": 3, "nonsquare": 2}[kind]
    assert head.b_words.shape == (counting._LANE_HEAD, words)
    rng = np.random.default_rng(17)
    ps = np.sort(rng.choice(arith.sieve_primes(200_000)[1:], 400, replace=False))
    nonres, s_mask = counting._prime_bits(head, ps)
    symbols = np.stack([[oracle_legendre(int(ell), p) for ell in head.ells] for p in ps.tolist()])
    parity = (symbols == -1).astype(np.int64) @ _in_b(head) % 2 == 1
    coprime = np.gcd(_odd_powers(head), ps[:, None] - 1) == 1
    n = len(head.cands)
    assert (counting._usable(head, nonres, np.zeros_like(s_mask), 0, n) == parity).all()
    assert ((s_mask[:, None] & head.r_mask == 0) == coprime).all()
    assert (counting._usable(head, nonres, s_mask, 0, n) == (parity & coprime)).all()
    assert parity.any() and (~parity).any() and (~coprime).any() == (kind != "squarefree")


@pytest.mark.parametrize("kind", sorted(counting._KINDS))
def test_lane_head_odd_power_matches_factorize(kind):
    # bit i of r_mask is set where the odd prime s_primes[i] divides r
    head = counting._lane_head(kind)
    odd_power = _odd_powers(head)
    assert len(head.cands) == len(head.r_mask) == counting._LANE_HEAD
    assert head.s_primes.tolist() == arith.sieve_primes(max(2, int(odd_power.max())))[1:].tolist()
    bits = head.r_mask[:, None] >> np.arange(len(head.s_primes), dtype=np.uint64) & np.uint64(1)
    assert ((bits == 1) == (odd_power[:, None] % head.s_primes == 0)).all()


@pytest.mark.parametrize("kind", sorted(counting._KINDS))
def test_perfect_power_candidates_are_no_primitive_roots(kind):
    # m an r-th power and s an odd prime of gcd(r, p - 1): m^((p-1)/s) = 1
    head = counting._lane_head(kind)
    powers = [(m, r) for m, r in zip(head.cands.tolist(), _odd_powers(head).tolist()) if r > 1]
    tested = 0
    for p in arith.sieve_primes(20000)[1:].tolist():
        qs = tuple(q for q, _ in arith.factorize(p - 1))
        for m, r in powers:
            if math.gcd(r, p - 1) > 1:
                assert not arith.is_primitive_root(m, p, qs), (m, p)
                tested += 1
    assert tested > 0 or not powers


def test_hypothesis_pow_lanes_skip_perfect_powers(monkeypatch):
    # a count of work, not a timer: the squares and cubes of the head's
    # first columns never reach a power (the lanes without the rule: 181 589)
    lanes = []
    pow_lanes = arith.pow_mod_lanes

    def spy(base, exp, mod):
        lanes.append(exp.size)
        return pow_lanes(base, exp, mod)

    monkeypatch.setattr(arith, "pow_mod_lanes", spy)
    hypothesis_scan(_LANE_LIMIT, jobs=1)
    assert 0 < sum(lanes) <= 115_000


@pytest.mark.parametrize(
    "scan, kinds",
    [
        (lambda: hypothesis_scan(20_000, jobs=2), ["squarefull"]),
        (lambda: scan_range(3, 20_000, jobs=2), sorted(counting._KINDS)),
    ],
)
def test_heads_built_before_the_blocks(monkeypatch, scan, kinds):
    # forked workers inherit the heads instead of each building them
    built = []
    head = counting._lane_head.__wrapped__

    @functools.cache
    def recorded(kind, level=0):
        built.append(kind)
        return head(kind, level)

    search = counting._lane_search

    def check(ps, kind, p1_primes):
        # in a forked worker too: it sees only the heads its parent built
        assert sorted(built) == kinds
        return search(ps, kind, p1_primes)

    monkeypatch.setattr(counting, "_lane_head", recorded)
    monkeypatch.setattr(counting, "_lane_search", check)
    scan()
    assert sorted(built) == kinds


def _corrupt(monkeypatch, pick, kind="squarefull"):
    search = counting._lane_search

    def wrong(ps, which, p1_primes):
        g = search(ps, which, p1_primes)
        i = pick(ps, g) if which == kind else None
        if i is not None:
            g[i] += 1
        return g

    monkeypatch.setattr(counting, "_lane_search", wrong)


def test_corrupt_lane_result_of_sampled_prime_raises(monkeypatch):
    # blocks no longer than the sample are checked at every prime
    assert counting.CROSS_CHECK_SAMPLE >= 16
    monkeypatch.setattr(counting, "BLOCK_SIZE", 16)
    _corrupt(monkeypatch, lambda ps, g: 9 if len(ps) > 9 else None)
    want = r"at p = \d+ the lanes give squarefull \d+, the scalar route"
    with pytest.raises(ArithmeticError, match=want):
        hypothesis_scan(2000)


@pytest.mark.parametrize("kind", ["squarefull", "squarefree", "nonsquare"])
def test_corrupt_scan_lane_result_raises(monkeypatch, kind):
    monkeypatch.setattr(counting, "BLOCK_SIZE", 16)
    _corrupt(monkeypatch, lambda ps, g: 9 if len(ps) > 9 else None, kind)
    want = rf"at p = \d+ the lanes give {kind} \d+, the scalar route"
    with pytest.raises(ArithmeticError, match=want):
        scan_range(3, 2000)


def test_corrupt_lane_result_of_reported_prime_raises(monkeypatch):
    _corrupt(monkeypatch, lambda ps, g: 2 if ps[2] == 7 else None)
    want = r"at p = 7 the lanes give squarefull 109, the scalar route 108"
    with pytest.raises(ArithmeticError, match=want):
        hypothesis_scan(100_000)


@pytest.mark.parametrize(
    "scan", [lambda: hypothesis_scan(2000), lambda: scan_range(3, 2000)], ids=["hypothesis", "scan"]
)
def test_wrong_factor_row_of_sampled_prime_raises(monkeypatch, scan):
    # the least odd prime q not dividing p - 1, added to the tenth row of
    # each block of 16, where every prime is checked; q < p - 1, so the
    # least elements stay right and only the row itself is wrong
    assert counting.CROSS_CHECK_SAMPLE >= 16
    monkeypatch.setattr(counting, "BLOCK_SIZE", 16)
    factor = arith.prime_factors_lanes

    def wrong(ns):
        rows = factor(ns)
        if len(ns) > 9:
            q = next(q for q in (3, 5, 7) if ns[9] % q)
            rows = np.pad(rows, ((0, 0), (0, 1)))
            rows[9, np.count_nonzero(rows[9])] = q
        return rows

    monkeypatch.setattr(arith, "prime_factors_lanes", wrong)
    want = r"at p = 31 the lanes give primes of p - 1 \(2, 3, 5, 7\), the scalar route \(2, 3, 5\)"
    with pytest.raises(ArithmeticError, match=want):
        scan()


def _record_rebuilt(monkeypatch) -> list[int]:
    """The primes the cross-check rebuilds on build_context, once each."""
    checked = []
    build = counting.build_context

    def record(p):
        checked.append(p)
        return build(p)

    monkeypatch.setattr(counting, "build_context", record)
    return checked


def test_cross_check_covers_reported_and_sampled_primes(monkeypatch):
    checked = _record_rebuilt(monkeypatch)
    source, k, search = counting._KINDS["squarefull"]
    searched = []

    def scalar(ctx):
        searched.append(ctx.p)
        return search(ctx)

    monkeypatch.setitem(counting._KINDS, "squarefull", (source, k, scalar))
    pairs = hypothesis_scan(_LANE_LIMIT)
    assert searched == checked
    want = {p for p, _ in pairs}
    for block in counting._prime_blocks(3, _LANE_LIMIT):
        rng = random.Random(f"{int(block[0])}")
        picks = rng.sample(range(len(block)), min(len(block), counting.CROSS_CHECK_SAMPLE))
        want |= {int(block[i]) for i in picks}
    assert sorted(checked) == sorted(want)


def _rows(csv: str) -> list[list[int | float]]:
    """The rows of a scan CSV under CSV_HEADER, the ratio as a float."""
    header, *lines = csv.splitlines()
    assert header == CSV_HEADER
    return [[float(v) if "." in v else int(v) for v in line.split(",")] for line in lines]


def test_scan_cross_check_covers_reported_and_sampled_primes(monkeypatch):
    checked = _record_rebuilt(monkeypatch)
    rows = _rows(scan_range(3, _LANE_LIMIT))
    want = {p for p, g_sf, *_ in rows if g_sf >= p}
    assert {3, 5, 7} <= want
    for block in counting._prime_blocks(3, _LANE_LIMIT):
        rng = random.Random(f"{int(block[0])}")
        picks = rng.sample(range(len(block)), min(len(block), counting.CROSS_CHECK_SAMPLE))
        want |= {int(block[i]) for i in picks}
    assert sorted(checked) == sorted(want)


def test_hypothesis_rejects_limit_past_int64_lanes(monkeypatch):
    monkeypatch.setattr(arith, "sieve_primes", lambda *args: pytest.fail("sieved"))
    with pytest.raises(ValueError, match=str(arith.MAX_INT64_MODULUS)):
        hypothesis_scan(arith.MAX_INT64_MODULUS + 1)


def test_scan_rejects_range_past_int64_lanes(monkeypatch):
    monkeypatch.setattr(arith, "sieve_primes", lambda *args: pytest.fail("sieved"))
    with pytest.raises(ValueError, match=str(arith.MAX_INT64_MODULUS)):
        scan_range(arith.MAX_INT64_MODULUS - 100, arith.MAX_INT64_MODULUS + 1)


# -- scans ------------------------------------------------------------------


def test_least_csv_frozen_rows():
    assert least_csv(3) == CSV_HEADER + "\n3,8,2,2,2.666667,1\n"
    assert least_csv(7) == CSV_HEADER + "\n7,108,3,3,15.428571,2\n"
    assert least_csv(5) == CSV_HEADER + "\n5,8,2,2,1.600000,1\n"
    assert CSV_HEADER == "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"


def test_scan_range_3_to_100():
    csv = scan_range(3, 100)
    lines = csv.splitlines()[1:]
    rows = _rows(csv)
    assert len(rows) == 24
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    assert lines[0].startswith("3,8,2,2")
    for (p, _, g_free, g, *_), line in zip(rows, lines):
        assert g <= g_free
        # the lanes' row is the one the scalar routes give
        assert least_csv(p) == f"{CSV_HEADER}\n{line}\n"


def test_scan_csv_to_1e5_pinned():
    # sha256 of `sfpr scan --from 3 --to 100000` from before the shared
    # square-free candidate list
    digest = hashlib.sha256(scan_range(3, 100_000, jobs=2).encode()).hexdigest()
    assert digest == "cfe85c7bd96840c359f78fb6b39e4d2fb16643e64c44aa08cb9e072ea2eb9501"


def test_scan_csv_to_1e6_pinned():
    # sha256 of `sfpr scan --from 3 --to 1000000` when every row came from
    # the scalar searches of one prime at a time
    digest = hashlib.sha256(scan_range(3, 10**6, jobs=2).encode()).hexdigest()
    assert digest == "ba6944ed280e0986282a95075e7a9784e454ad5ab0929f41d0c4c970fc937ee7"


def test_scan_jobs_independent(monkeypatch):
    # the fork pool's workers inherit the patched block size
    monkeypatch.setattr(counting, "BLOCK_SIZE", 16)
    one = scan_range(3, 2000, jobs=1)
    two = scan_range(3, 2000, jobs=2)
    assert one == two


class _RecordingPool:
    """Stands in for the fork context's Pool: records the requested worker
    count and maps in this process."""

    def __init__(self, requested, processes):
        requested.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "run, jobs, want",
    [
        # blocks of 16 primes: 24 primes to 100, 77 to 400 and 3 to 10
        (lambda jobs: scan_range(3, 100, jobs=jobs), 16, [2]),
        (lambda jobs: hypothesis_scan(400, jobs=jobs), 16, [5]),
        (lambda jobs: hypothesis_scan(400, jobs=jobs), 3, [3]),
        (lambda jobs: scan_range(3, 10, jobs=jobs), 16, []),
    ],
)
def test_pool_workers_capped_by_blocks(monkeypatch, run, jobs, want):
    monkeypatch.setattr(counting, "BLOCK_SIZE", 16)
    requested = []
    monkeypatch.setattr(
        multiprocessing.get_context("fork"), "Pool", lambda n: _RecordingPool(requested, n)
    )
    run(jobs)
    assert requested == want


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        scan_range(2, 10)
    with pytest.raises(ValueError):
        scan_range(10, 3)


def test_hypothesis_scan_small(monkeypatch):
    monkeypatch.setattr(counting, "BLOCK_SIZE", 64)
    pairs = hypothesis_scan(2000, jobs=2)
    assert isinstance(pairs, list) and all(isinstance(pair, tuple) for pair in pairs)
    assert dict(pairs)[3] == 8 and dict(pairs)[5] == 8 and dict(pairs)[7] == 108
    assert all(g >= p for p, g in pairs)
    ps = [p for p, _ in pairs]
    assert ps == sorted(ps)
    assert len(set(ps)) == len(ps)
    inline = hypothesis_scan(2000, jobs=1)
    assert inline == pairs


def test_hypothesis_progress_callback():
    seen = []
    hypothesis_scan(100, progress=lambda done, total: seen.append((done, total)))
    assert seen and seen[-1][0] == seen[-1][1]

"""Character-sum route checks: frozen small values, exact route equality on
randomized inputs, symmetry, and gauge sanity."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from sfpr import arith, charsums, counting, squarefull
from sfpr.characters import build_context
from sfpr.charsums import sum_char_prime_powerful, sum_char_squarefree, sum_char_squarefull
from sfpr.counting import count_by_target

import gauges


def oracle_legendre(a, p):
    """(a|p) by Euler's criterion, p an odd prime."""
    t = pow(a, (p - 1) // 2, p)
    return t - p if t > 1 else t


def brute_interval(ctx, j, x):
    return sum(complex(v) for v in ctx.values([j], range(1, x + 1))[0])


def interval_sum(ctx, j, x):
    """sum_{m <= x} chi_j(m) from the prefix the factored routes read."""
    return complex(charsums._interval_values(ctx, np.array([j]), [x])[0, 0])


def one(fn, ctx, j, x, route):
    """The sum of the single character chi_j: fn on [j], its value [0]."""
    got = fn(ctx, [j], x, route)
    assert got.value.shape == (1,)
    return got.value[0]


def power_oracle(ctx, j, ms):
    """sum of chi_j(m) over ms, the logs found by repeated multiplication of
    the generator, independent of the discrete-log table."""
    p, n = ctx.p, ctx.p - 1
    logs, v = {}, 1
    for k in range(n):
        logs[v] = k
        v = v * ctx.generator % p
    return sum(np.exp(2j * np.pi * j * logs[m % p] / n) for m in ms if m % p)


class TestInterval:
    def test_principal_counts_coprime(self):
        ctx = build_context(7)
        assert interval_sum(ctx, 0, 20) == pytest.approx(18)  # 20 minus floor(20/7)

    def test_full_period_vanishes(self):
        ctx = build_context(7)
        assert abs(interval_sum(ctx, 1, 6)) < 1e-12

    def test_matches_brute(self):
        ctx = build_context(31)
        for j in (0, 1, 7, 15):
            for x in (1, 5, 30, 31, 62, 100, 997):
                want = brute_interval(ctx, j, x)
                assert interval_sum(ctx, j, x) == pytest.approx(want, abs=1e-9)

    def test_matches_power_oracle(self):
        ctx = build_context(101)
        for j in (1, 50):
            for x in (10, 101, 250):
                got = interval_sum(ctx, j, x)
                assert got == pytest.approx(power_oracle(ctx, j, range(1, x + 1)), abs=1e-9)

    def test_bound_by_terms(self):
        ctx = build_context(13)
        for j in range(12):
            assert abs(interval_sum(ctx, j, 200)) <= 200 + 1e-9

    @pytest.mark.parametrize("xmax", [40, 101, 5000])  # spans below, at and past p
    def test_blocks_of_rows_change_no_bit(self, monkeypatch, xmax):
        # all 100 characters mod 101 in one block, then with the budget at 1,
        # blocks of p // span rows
        ctx = build_context(101)
        js = np.arange(100)
        xs = np.array([0, 1, 7, xmax // 2, xmax])
        whole = charsums._interval_values(ctx, js, xs)
        monkeypatch.setattr(charsums, "_PREFIX_BLOCK", 1)
        assert np.array_equal(charsums._interval_values(ctx, js, xs), whole)


class TestFrozenRestrictedSums:
    def test_squarefull_quadratic_p7(self):
        ctx = build_context(7)
        got = sum_char_squarefull(ctx, [3], 10, route="direct")  # j = (7 - 1) / 2
        assert got.value == pytest.approx([4])  # 1,4,8,9 are all residues mod 7
        assert got.terms_used == 4

    def test_squarefull_principal_p7(self):
        ctx = build_context(7)
        for route in ("direct", "factored"):
            got = sum_char_squarefull(ctx, [0], 100, route=route)
            assert got.value == pytest.approx([13])  # 14 squarefull, 49 killed

    def test_prime_powerful_quadratic_p7(self):
        ctx = build_context(7)
        for route in ("direct", "factored"):
            got = sum_char_prime_powerful(ctx, [3], 200, route=route)  # j = (7 - 1) / 2
            assert got.value == pytest.approx([2])  # 32,72,200 residues; 108 not

    def test_squarefree_principal_p7(self):
        ctx = build_context(7)
        for route in ("direct", "factored"):
            got = sum_char_squarefree(ctx, [0], 10, route=route)
            assert got.value == pytest.approx([6])  # 7 of 7 squarefree minus chi0(7)


class TestRouteEquality:
    def test_randomized_triples(self):
        rng = random.Random(20250822)
        ps = [int(p) for p in arith.sieve_primes(500) if p >= 3]
        for _ in range(60):
            p = rng.choice(ps)
            ctx = build_context(p)
            j = rng.randrange(p - 1)
            x = rng.randrange(1, 20000)
            a = one(sum_char_squarefull, ctx, j, x, "direct")
            b = one(sum_char_squarefull, ctx, j, x, "factored")
            assert a == pytest.approx(b, abs=1e-9)
            c = one(sum_char_squarefree, ctx, j, x, "direct")
            d = one(sum_char_squarefree, ctx, j, x, "factored")
            assert c == pytest.approx(d, abs=1e-9)
            e = one(sum_char_prime_powerful, ctx, j, x, "direct")
            f = one(sum_char_prime_powerful, ctx, j, x, "factored")
            assert e == pytest.approx(f, abs=1e-9)

    def test_routes_match_power_oracle(self):
        ctx = build_context(211)
        want = power_oracle(ctx, 5, itertools.takewhile(lambda m: m <= 3000, squarefull.squarefull_stream()))
        a = one(sum_char_squarefull, ctx, 5, 3000, "direct")
        b = one(sum_char_squarefull, ctx, 5, 3000, "factored")
        assert a == pytest.approx(want, abs=1e-9)
        assert b == pytest.approx(want, abs=1e-9)


def _squarefull_terms(x):
    return sum(
        math.isqrt(x // b**3) for b in range(1, arith.icbrt(x) + 1) if arith.mobius(b) != 0
    )


def _squarefree_terms(x):
    return sum(x // (d * d) for d in range(1, math.isqrt(x) + 1) if arith.mobius(d) != 0)


def _prime_powerful_terms(x):
    total = 0
    for r in range(2, arith.icbrt(x) + 1):
        if arith.is_prime(r):
            qmax = math.isqrt(x // r**3)
            total += sum(1 for q in range(2, qmax + 1) if arith.is_prime(q))
    return total


FACTORED_TERMS = (
    (sum_char_squarefull, _squarefull_terms),
    (sum_char_squarefree, _squarefree_terms),
    (sum_char_prime_powerful, _prime_powerful_terms),
)


class TestFactoredTerms:
    """terms_used of each factored sum against a scalar count of the inner
    terms, for two seeded characters per modulus."""

    def test_seeded_grid(self):
        rng = random.Random(7)
        ps = [int(p) for p in arith.sieve_primes(500)[1:]]
        for _ in range(12):
            p = rng.choice(ps)
            x = rng.randrange(1, 30000)
            ctx = build_context(p)
            for _ in range(2):
                j = rng.randrange(p - 1)
                for fn, want in FACTORED_TERMS:
                    assert fn(ctx, [j], x, "factored").terms_used == want(x), (fn, p, x)


class TestLargeModulus:
    """p = 1048573, the largest prime below 2^20: the factored sums agree
    with the direct ones for x on either side of p, and below p they build
    no p-length character table."""

    P = 1048573

    @pytest.mark.parametrize("x", [300_000, 1_100_000])
    def test_factored_equals_direct(self, x, monkeypatch):
        ctx = build_context(self.P)
        j = random.Random(x).randrange(1, self.P - 1)
        widths = []  # points per row of each character-value gather
        read = ctx.values

        def gather(js, ms):
            widths.append(len(ms))
            return read(js, ms)

        monkeypatch.setattr(ctx, "values", gather)
        factored = {}
        for fn, _ in FACTORED_TERMS:
            factored[fn] = one(fn, ctx, j, x, "factored")
        if x < self.P:
            assert 0 < max(widths) < self.P
        for fn, value in factored.items():
            direct = one(fn, ctx, j, x, "direct")
            assert abs(value - direct) <= 1e-9 * max(1.0, abs(direct)), fn
        assert max(widths) == self.P  # the direct rows are read through the same gather


class TestSymmetries:
    def test_conjugate_character_conjugates_sums(self):
        # the conjugate of chi_j is chi_{-j mod p-1}
        ctx = build_context(61)
        for j in (1, 9, 31):
            for fn in (sum_char_squarefull, sum_char_squarefree):
                bar = one(fn, ctx, -j % 60, 5000, "factored")
                assert bar == pytest.approx(np.conjugate(one(fn, ctx, j, 5000, "factored")), abs=1e-9)

    def test_principal_sums_are_integers(self):
        ctx = build_context(31)
        for x in (100, 1234):
            v = one(sum_char_squarefull, ctx, 0, x, "factored")
            assert v.imag == pytest.approx(0, abs=1e-12)
            assert v.real == pytest.approx(round(v.real), abs=1e-9)


def grh_envelope(p, x):
    return math.sqrt(x) * math.log(p * x) ** 2


class TestGauges:
    def test_grh_frozen_example(self):
        # the only prime up to 2 is 2, and (2|7) = +1
        got = gauges.grh_gauge_max(ps=(7,), xmax=2)
        want = 1 / (math.sqrt(2) * math.log(14) ** 2)
        assert (got["p"], got["x"]) == (7, 2)
        assert got["ratio"] == pytest.approx(want, abs=1e-12)
        assert got["ratio"] == pytest.approx(0.101, abs=1e-3)

    def test_burgess_sane_range(self):
        got = gauges.burgess_gauge_max(ps=(1009,), rs=(2,), xmax=1000)
        assert 0 < got["ratio"] < 1

    def test_gauge_max_consistency(self):
        # the scanner's reported max must agree with a pointwise re-evaluation
        # from Legendre symbols, at every x
        best = gauges.burgess_gauge_max(ps=(101,), rs=(2,), xmax=500)
        partial = np.cumsum([oracle_legendre(m, 101) for m in range(1, 501)])
        again = [abs(int(partial[x - 1])) / gauges.burgess_envelope(101, x, 2) for x in range(2, 501)]
        assert best["ratio"] == pytest.approx(max(again), abs=1e-12)
        assert best["ratio"] == pytest.approx(again[best["x"] - 2], abs=1e-12)

    def test_grh_gauge_max_consistency(self):
        best = gauges.grh_gauge_max(ps=(101,), xmax=10**4)
        primes = [q for q in range(2, 10**4 + 1) if arith.is_prime(q)]
        partial = np.cumsum([oracle_legendre(q, 101) for q in primes])
        again = {q: abs(int(s)) / grh_envelope(101, q) for q, s in zip(primes, partial)}
        assert best["ratio"] == pytest.approx(max(again.values()), abs=1e-12)
        assert best["ratio"] == pytest.approx(again[best["x"]], abs=1e-12)


RESTRICTED = (sum_char_squarefull, sum_char_squarefree, sum_char_prime_powerful)


class TestBatchedCharacters:
    """A call on k character indices is the stack of the k calls on one
    index each, bit for bit, and its terms_used is theirs summed."""

    @pytest.mark.parametrize(
        "p,x",
        # at p = 1048573 the prefix is built one row per block above p and
        # three rows per block at x = 300000, so 8 characters split unevenly
        [(1009, 10**4), (1009, 10**6), (1048573, 300_000), (1048573, 1_100_000)],
    )
    @pytest.mark.parametrize("fn", RESTRICTED)
    def test_equals_stacked_scalar_calls(self, fn, p, x):
        ctx = build_context(p)
        js = [0, (p - 1) // 2, *random.Random(f"{p}:{x}").sample(range(1, p - 1), 6)]
        batched = fn(ctx, js, x, "factored")
        scalar = [fn(ctx, [j], x, "factored") for j in js]
        assert batched.value.tolist() == [r.value[0] for r in scalar]
        assert batched.terms_used == sum(r.terms_used for r in scalar)

    @pytest.mark.parametrize("fn", RESTRICTED)
    def test_direct_route_batches_too(self, fn):
        ctx = build_context(101)
        js = [0, 3, 50, 77]
        batched = fn(ctx, js, 5000, "direct")
        scalar = [fn(ctx, [j], 5000, "direct") for j in js]
        assert batched.value.tolist() == [r.value[0] for r in scalar]
        assert batched.terms_used == sum(r.terms_used for r in scalar)

    @pytest.mark.parametrize("route", ["direct", "factored"])
    @pytest.mark.parametrize("fn", RESTRICTED)
    def test_empty_sequence(self, fn, route):
        got = fn(build_context(101), [], 5000, route)
        assert got.value.shape == (0,) and got.terms_used == 0


def _oracle_squarefull(m):
    return all(e >= 2 for e in _oracle_exponents(m))


def _oracle_squarefree(m):
    return all(e == 1 for e in _oracle_exponents(m))


def _oracle_prime_powerful(m):
    # m = q^2 r^3 with q, r prime: exponents (2, 3), (3, 2) or a single 5
    return sorted(_oracle_exponents(m)) in ([2, 3], [5])


def _oracle_exponents(m):
    exps, d = [], 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            exps.append(e)
        d += 1
    return exps + [1] * (m > 1)


WALKS = (
    (sum_char_squarefull, _oracle_squarefull),
    (sum_char_squarefree, _oracle_squarefree),
    (sum_char_prime_powerful, _oracle_prime_powerful),
)


class TestDirectRoutes:
    """Each direct route against a plain-Python walk: members by trial
    division, chi_j(m) from the k with pow(g, k, p) = m."""

    @pytest.mark.parametrize("x", [60, 5000])  # either side of p = 101
    @pytest.mark.parametrize("fn,is_member", WALKS)
    def test_matches_pow_walk(self, fn, is_member, x):
        ctx = build_context(101)
        n = ctx.p - 1
        logs = {pow(ctx.generator, k, ctx.p): k for k in range(n)}
        members = [m for m in range(1, x + 1) if is_member(m)]
        for j in (0, 1, 25, 50, 99):
            terms = [cmath.exp(2j * math.pi * (j * logs[m % ctx.p] % n) / n) for m in members if m % ctx.p]
            want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            got = fn(ctx, [j], x, "direct")
            assert got.terms_used == len(members)
            assert abs(got.value[0] - want) <= 1e-12 * max(1.0, abs(want)), (j, got.value, want)


@pytest.mark.parametrize("target", list(counting.FAMILIES))
def test_count_calls_family_sum_once(monkeypatch, target):
    # the FFT check sums all its sampled characters in one call
    walk, histogram, fn = counting.FAMILIES[target]
    calls = []

    def counted(ctx, js, x, route):
        calls.append((len(js), route))
        return fn(ctx, js, x, route)

    monkeypatch.setitem(counting.FAMILIES, target, (walk, histogram, counted))
    ctx = build_context(1009)
    for x in (500, 10**4):
        count_by_target(ctx, x, target)
    assert calls == [(counting.CHECK_SAMPLE + 2, "factored")] * 2

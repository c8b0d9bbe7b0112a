"""Character-sum route checks: frozen small values, exact route equality on
randomized inputs, symmetry, and gauge sanity."""

import cmath
import math
import random

import numpy as np
import pytest

from sfpr import arith, charsums, counting, squarefull
from sfpr.characters import Character, build_context, characters_of_order, principal, quadratic
from sfpr.charsums import (
    burgess_ratio,
    grh_prime_ratio,
    sum_char_interval,
    sum_char_prime_powerful,
    sum_char_primes,
    sum_char_squarefree,
    sum_char_squarefull,
)
from sfpr.counting import count_by_target


def brute_interval(ctx, chi, x):
    return sum(chi(m) for m in range(1, x + 1))


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
        got = sum_char_interval(ctx, principal(ctx), 20)
        assert got.value == pytest.approx(18)  # 20 minus floor(20/7)
        assert got.terms_used == 20

    def test_full_period_vanishes(self):
        ctx = build_context(7)
        got = sum_char_interval(ctx, Character(ctx, 1), 6)
        assert abs(got.value) < 1e-12

    def test_matches_brute(self):
        ctx = build_context(31)
        for j in (0, 1, 7, 15):
            chi = Character(ctx, j)
            for x in (1, 5, 30, 31, 62, 100, 997):
                want = brute_interval(ctx, chi, x)
                assert sum_char_interval(ctx, chi, x).value == pytest.approx(want, abs=1e-9)

    def test_matches_power_oracle(self):
        ctx = build_context(101)
        for j in (1, 50):
            for x in (10, 101, 250):
                got = sum_char_interval(ctx, Character(ctx, j), x).value
                assert got == pytest.approx(power_oracle(ctx, j, range(1, x + 1)), abs=1e-9)

    def test_bound_by_terms(self):
        ctx = build_context(13)
        for j in range(12):
            got = sum_char_interval(ctx, Character(ctx, j), 200)
            assert abs(got.value) <= got.terms_used + 1e-9


class TestFrozenRestrictedSums:
    def test_squarefull_quadratic_p7(self):
        ctx = build_context(7)
        got = sum_char_squarefull(ctx, quadratic(ctx), 10, route="direct")
        assert got.value == pytest.approx(4)  # 1,4,8,9 are all residues mod 7
        assert got.terms_used == 4

    def test_squarefull_principal_p7(self):
        ctx = build_context(7)
        for route in ("direct", "factored"):
            got = sum_char_squarefull(ctx, principal(ctx), 100, route=route)
            assert got.value == pytest.approx(13)  # 14 squarefull, 49 killed

    def test_prime_powerful_quadratic_p7(self):
        ctx = build_context(7)
        for route in ("direct", "factored"):
            got = sum_char_prime_powerful(ctx, quadratic(ctx), 200, route=route)
            assert got.value == pytest.approx(2)  # 32,72,200 residues; 108 not

    def test_squarefree_principal_p7(self):
        ctx = build_context(7)
        for route in ("direct", "factored"):
            got = sum_char_squarefree(ctx, principal(ctx), 10, route=route)
            assert got.value == pytest.approx(6)  # 7 of 7 squarefree minus chi0(7)

    def test_prime_sum_small(self):
        ctx = build_context(7)
        got = sum_char_primes(ctx, quadratic(ctx), 10)
        # legendre over 2,3,5,7: +1,-1,-1,0
        assert got.value == pytest.approx(-1)
        assert got.terms_used == 4


class TestRouteEquality:
    def test_randomized_triples(self):
        rng = random.Random(20250822)
        ps = [int(p) for p in arith.sieve_primes(500) if p >= 3]
        for _ in range(60):
            p = rng.choice(ps)
            ctx = build_context(p)
            j = rng.randrange(p - 1)
            chi = Character(ctx, j)
            x = rng.randrange(1, 20000)
            a = sum_char_squarefull(ctx, chi, x, "direct").value
            b = sum_char_squarefull(ctx, chi, x, "factored").value
            assert a == pytest.approx(b, abs=1e-9)
            c = sum_char_squarefree(ctx, chi, x, "direct").value
            d = sum_char_squarefree(ctx, chi, x, "factored").value
            assert c == pytest.approx(d, abs=1e-9)
            e = sum_char_prime_powerful(ctx, chi, x, "direct").value
            f = sum_char_prime_powerful(ctx, chi, x, "factored").value
            assert e == pytest.approx(f, abs=1e-9)

    def test_routes_match_power_oracle(self):
        ctx = build_context(211)
        chi = Character(ctx, 5)
        want = power_oracle(ctx, 5, squarefull.enumerate_squarefull(3000))
        a = sum_char_squarefull(ctx, chi, 3000, "direct").value
        b = sum_char_squarefull(ctx, chi, 3000, "factored").value
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
                chi = Character(ctx, rng.randrange(p - 1))
                for fn, want in FACTORED_TERMS:
                    assert fn(ctx, chi, x, "factored").terms_used == want(x), (fn, p, x)


class TestLargeModulus:
    """p = 1048573, the largest prime below 2^20: the factored sums agree
    with the direct ones for x on either side of p, and below p they build
    no p-length character table."""

    P = 1048573

    @pytest.mark.parametrize("x", [300_000, 1_100_000])
    def test_factored_equals_direct(self, x):
        ctx = build_context(self.P)
        chi = Character(ctx, random.Random(x).randrange(1, self.P - 1))
        factored = {}
        for fn, _ in FACTORED_TERMS:
            factored[fn] = fn(ctx, chi, x, "factored").value
        if x < self.P:
            assert len(ctx._chi_tables) == 0
        for fn, value in factored.items():
            direct = fn(ctx, chi, x, "direct").value
            assert abs(value - direct) <= 1e-9 * max(1.0, abs(direct)), fn


class TestSymmetries:
    def test_conjugate_character_conjugates_sums(self):
        ctx = build_context(61)
        for j in (1, 9, 31):
            chi = Character(ctx, j)
            bar = chi.conjugate()
            for fn in (
                lambda c: sum_char_squarefull(ctx, c, 5000, "factored").value,
                lambda c: sum_char_squarefree(ctx, c, 5000, "factored").value,
                lambda c: sum_char_interval(ctx, c, 5000).value,
            ):
                assert fn(bar) == pytest.approx(np.conjugate(fn(chi)), abs=1e-9)

    def test_principal_sums_are_integers(self):
        ctx = build_context(31)
        chi0 = principal(ctx)
        for x in (100, 1234):
            v = sum_char_squarefull(ctx, chi0, x, "factored").value
            assert v.imag == pytest.approx(0, abs=1e-12)
            assert v.real == pytest.approx(round(v.real), abs=1e-9)


class TestGauges:
    def test_grh_frozen_example(self):
        ctx = build_context(7)
        got = grh_prime_ratio(ctx, quadratic(ctx), 2)
        want = 1 / (math.sqrt(2) * math.log(14) ** 2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.101, abs=1e-3)

    def test_burgess_rejects_principal(self):
        ctx = build_context(101)
        with pytest.raises(ValueError):
            burgess_ratio(ctx, principal(ctx), 100, 2)

    def test_burgess_sane_range(self):
        ctx = build_context(1009)
        got = burgess_ratio(ctx, quadratic(ctx), 1000, 2)
        assert 0 < got < 1

    def test_gauge_max_consistency(self):
        # the scanner's reported max must agree with a pointwise re-evaluation
        best = charsums.burgess_gauge_max(ps=(101,), rs=(2,), xmax=500)
        ctx = build_context(101)
        again = burgess_ratio(ctx, quadratic(ctx), best["x"], best["r"])
        assert best["ratio"] == pytest.approx(again, abs=1e-12)

    def test_grh_gauge_max_consistency(self):
        best = charsums.grh_gauge_max(ps=(101,), xmax=10**4)
        ctx = build_context(101)
        again = grh_prime_ratio(ctx, quadratic(ctx), best["x"])
        assert best["ratio"] == pytest.approx(again, abs=1e-12)


RESTRICTED = (sum_char_squarefull, sum_char_squarefree, sum_char_prime_powerful)


class TestBatchedCharacters:
    """A call on a sequence of characters is the stack of the scalar calls,
    bit for bit, and its terms_used is theirs summed."""

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
        chars = [Character(ctx, j) for j in js]
        batched = fn(ctx, chars, x, "factored")
        scalar = [fn(ctx, chi, x, "factored") for chi in chars]
        assert batched.value.tolist() == [r.value for r in scalar]
        assert batched.terms_used == sum(r.terms_used for r in scalar)

    @pytest.mark.parametrize("fn", RESTRICTED)
    def test_direct_route_batches_too(self, fn):
        ctx = build_context(101)
        chars = [Character(ctx, j) for j in (0, 3, 50, 77)]
        batched = fn(ctx, chars, 5000, "direct")
        scalar = [fn(ctx, chi, 5000, "direct") for chi in chars]
        assert batched.value.tolist() == [r.value for r in scalar]
        assert batched.terms_used == sum(r.terms_used for r in scalar)

    @pytest.mark.parametrize("route", ["direct", "factored"])
    @pytest.mark.parametrize("fn", RESTRICTED)
    def test_empty_sequence(self, fn, route):
        got = fn(build_context(101), [], 5000, route)
        assert got.value.shape == (0,) and got.terms_used == 0

    def test_rejects_character_of_another_modulus(self):
        ctx, other = build_context(101), build_context(103)
        with pytest.raises(ValueError):
            sum_char_squarefree(ctx, [Character(ctx, 1), Character(other, 1)], 1000)


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
            got = fn(ctx, Character(ctx, j), x, "direct")
            assert got.terms_used == len(members)
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want)), (j, got.value, want)


@pytest.mark.parametrize("target", list(counting.FAMILIES))
def test_count_calls_family_sum_once(monkeypatch, target):
    # the FFT check sums all its sampled characters in one call
    walk, histogram, fn = counting.FAMILIES[target]
    calls = []

    def counted(ctx, chi, x, route):
        calls.append((len(chi), route))
        return fn(ctx, chi, x, route)

    monkeypatch.setitem(counting.FAMILIES, target, (walk, histogram, counted))
    ctx = build_context(1009)
    for x in (500, 10**4):
        count_by_target(ctx, x, target)
    assert calls == [(counting.CHECK_SAMPLE + 2, "factored")] * 2

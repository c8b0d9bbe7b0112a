"""Character-sum route checks: frozen small values, exact route equality on
randomized inputs, symmetry, and gauge sanity."""

import math
import random

import numpy as np
import pytest

from sfpr import arith, charsums, squarefull
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


def brute_interval(ctx, chi, x):
    return sum(chi(m) for m in range(1, x + 1))


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

    def test_bsgs_backend_matches(self):
        full = build_context(101)
        slow = build_context(101, table_threshold=2)
        for j in (1, 50):
            for x in (10, 101, 250):
                a = sum_char_interval(full, Character(full, j), x).value
                b = sum_char_interval(slow, Character(slow, j), x).value
                assert a == pytest.approx(b, abs=1e-9)

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

    def test_bsgs_route_equality(self):
        ctx = build_context(211, table_threshold=2)
        chi = Character(ctx, 5)
        a = sum_char_squarefull(ctx, chi, 3000, "direct").value
        b = sum_char_squarefull(ctx, chi, 3000, "factored").value
        assert a == pytest.approx(b, abs=1e-9)


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
    terms, on both discrete-log backends."""

    def test_seeded_grid(self):
        rng = random.Random(7)
        ps = [int(p) for p in arith.sieve_primes(500)[1:]]
        for _ in range(12):
            p = rng.choice(ps)
            x = rng.randrange(1, 30000)
            for ctx in (build_context(p), build_context(p, table_threshold=2)):
                chi = Character(ctx, rng.randrange(p - 1))
                for fn, want in FACTORED_TERMS:
                    assert fn(ctx, chi, x, "factored").terms_used == want(x), (fn, p, x)


class TestLargeModulus:
    """p = 1048573, just below the table threshold: the factored sums agree
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

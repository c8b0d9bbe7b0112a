"""Character representation checks: the discrete-log table and its bound,
value tables, order classes, orthogonality."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpr import arith, characters
from sfpr.characters import Character, build_context, char_eval, characters_of_order


def brute_order(a, p):
    x, k = a % p, 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def brute_logs(g, p):
    """{g^k mod p: k} by repeated multiplication, independent of the table."""
    logs, v = {}, 1
    for k in range(p - 1):
        logs[v] = k
        v = v * g % p
    return logs


class TestContext:
    def test_build_basics(self):
        ctx = build_context(7)
        assert ctx.p == 7
        assert ctx.generator == 3
        assert ctx.p1_factorization.factors == ((2, 1), (3, 1))
        assert ctx.p1_primes == (2, 3)

    def test_rejects_non_prime(self):
        for p in (1, 2, 4, 9, 1052040):
            with pytest.raises(ValueError):
                build_context(p)

    @pytest.mark.parametrize("p", [1, 9, 15, 2**62])
    def test_rejects_non_prime_message(self, p):
        with pytest.raises(ValueError, match="modulus must be an odd prime"):
            build_context(p)

    @pytest.mark.parametrize("p", [3, 1009, 1052041, 2**61 - 1])
    def test_factors_and_tests_once(self, monkeypatch, p):
        factorized, tested = [], []
        factorize, is_prime = arith.factorize, arith.is_prime
        monkeypatch.setattr(arith, "factorize", lambda n: factorized.append(n) or factorize(n))
        monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
        ctx = build_context(p)
        assert factorized == [p - 1]
        assert tested.count(p) == 1
        assert ctx.p1_factorization.n == p - 1
        assert pow(ctx.generator, (p - 1) // 2, p) == p - 1

    def test_index_roundtrip(self):
        ctx = build_context(101)
        for m in range(1, 101):
            assert pow(ctx.generator, ctx.index(m), 101) == m
        assert ctx.index(1) == 0
        assert ctx.index(ctx.generator) == 1

    def test_index_rejects_zero(self):
        ctx = build_context(7)
        with pytest.raises(ValueError):
            ctx.index(14)

    @pytest.mark.parametrize("p", [3, 101, 211, 1009])
    def test_index_matches_powers(self, p):
        ctx = build_context(p)
        for k in range(p - 1):
            assert ctx.index(pow(ctx.generator, k, p)) == k
            assert ctx.index(pow(ctx.generator, k, p) + 7 * p) == k

    def test_index_table_permutation_small_primes(self):
        for p in arith.sieve_primes(4999)[1:]:
            p = int(p)
            ctx = build_context(p)
            ind = ctx.index_table()
            assert ind[0] == 0
            assert sorted(ind[1:].tolist()) == list(range(p - 1))
            powers = [pow(ctx.generator, k, p) for k in range(p - 1)]
            assert ind[powers].tolist() == list(range(p - 1))

    def test_index_table_large_prime(self):
        p = 1048573
        # the table is built in blocks of isqrt(p-1)+1 powers; here the last
        # block is partial
        assert (p - 1) % (math.isqrt(p - 1) + 1) != 0
        ctx = build_context(p)
        ind = ctx.index_table()
        assert np.array_equal(np.sort(ind[1:]), np.arange(p - 1))
        rng = random.Random(1048573)
        for k in [0, 1, p - 2] + [rng.randrange(p - 1) for _ in range(997)]:
            assert ind[pow(ctx.generator, k, p)] == k

    def test_index_tiny_modulus(self):
        ctx = build_context(3)
        assert ctx.index(1) == 0
        assert ctx.index(2) == 1

    def test_index_table_refused_past_max_log_p(self):
        # 4194319 is the first prime past 2^22
        ctx = build_context(4194319)
        assert ctx.p > characters.MAX_LOG_P
        for read in (ctx.index_table, lambda: ctx.index(2), ctx.is_pr_table,
                     lambda: ctx.chi_values(1), lambda: char_eval(Character(ctx, 1), 2)):
            with pytest.raises(ValueError, match=f"MAX_LOG_P = {characters.MAX_LOG_P}"):
                read()
        assert ctx._index_table is None and ctx._roots is None and not ctx._chi_tables

    def test_is_pr_table(self):
        ctx = build_context(13)
        table = ctx.is_pr_table()
        want = {a for a in range(1, 13) if brute_order(a, 13) == 12}
        assert {a for a in range(13) if table[a]} == want

    def test_qr_signs_match_legendre(self):
        for p in (7, 11, 101):
            ctx = build_context(p)
            signs = ctx.qr_signs()
            for a in range(p):
                assert int(signs[a]) == arith.legendre(a, p)


class TestCharacterValues:
    def test_principal_values(self):
        ctx = build_context(11)
        chi0 = characters.principal(ctx)
        for m in range(1, 23):
            want = 0 if m % 11 == 0 else 1
            assert char_eval(chi0, m) == pytest.approx(want)

    def test_quadratic_is_legendre(self):
        for p in (3, 7, 11, 101):
            ctx = build_context(p)
            chi2 = characters.quadratic(ctx)
            for m in range(0, 2 * p):
                assert char_eval(chi2, m) == pytest.approx(arith.legendre(m, p))

    def test_frozen_example_generator_value(self):
        # j=2 at the generator of p=7: exp(2 pi i / 3)
        ctx = build_context(7)
        got = char_eval(Character(ctx, 2), 3)
        assert got == pytest.approx(cmath.exp(2j * cmath.pi / 3))

    def test_periodicity(self):
        ctx = build_context(13)
        chi = Character(ctx, 5)
        for m in range(1, 13):
            assert char_eval(chi, m) == pytest.approx(char_eval(chi, m + 13))

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_complete_multiplicativity(self, m, n):
        ctx = build_context(61)
        chi = Character(ctx, 7)
        lhs = char_eval(chi, m * n)
        rhs = char_eval(chi, m) * char_eval(chi, n)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_conjugate_pairs(self):
        ctx = build_context(29)
        for j in range(1, 28):
            chi = Character(ctx, j)
            bar = chi.conjugate()
            for m in (2, 17, 23):
                assert char_eval(bar, m) == pytest.approx(char_eval(chi, m).conjugate())

    @pytest.mark.parametrize("p", [3, 101, 211, 1009])
    def test_eval_matches_power_oracle(self, p):
        ctx = build_context(p)
        logs = brute_logs(ctx.generator, p)
        for j in sorted({1, 7 % (p - 1), (p - 1) // 2, p - 2}):
            for m in sorted({2, 3, 55, p - 1, p + 2, 2 * p}):
                want = cmath.exp(2j * cmath.pi * j * logs[m % p] / (p - 1)) if m % p else 0
                assert char_eval(Character(ctx, j), m) == pytest.approx(want, abs=1e-12)
        chi2 = characters.quadratic(ctx)
        for m in range(1, p):
            euler = 1 if pow(m, (p - 1) // 2, p) == 1 else -1
            assert char_eval(chi2, m) == pytest.approx(euler, abs=1e-12)

    def test_table_cache_bounded(self):
        ctx = build_context(101)
        g = ctx.generator
        for j in range(100):
            vals = ctx.chi_values(j)
            assert vals[g] == pytest.approx(cmath.exp(2j * cmath.pi * j / 100))
            assert np.allclose(ctx.chi_prefix(j), np.cumsum(vals))
            assert len(ctx._chi_tables) <= characters.CHI_CACHE_SIZE
        # the most recently used tables survive: same objects, not rebuilt
        assert ctx.chi_values(99) is ctx.chi_values(99)


class TestOrderClasses:
    def test_frozen_examples_p7(self):
        ctx = build_context(7)
        assert [c.j for c in characters_of_order(ctx, 3)] == [2, 4]
        assert [c.j for c in characters_of_order(ctx, 2)] == [3]
        assert [c.j for c in characters_of_order(ctx, 1)] == [0]

    def test_class_sizes_and_partition(self):
        for p in (7, 13, 61, 101):
            ctx = build_context(p)
            seen = []
            for d in arith.divisors(p - 1):
                cls = characters_of_order(ctx, d)
                assert len(cls) == arith.euler_phi(d)
                for c in cls:
                    assert c.order == d
                seen.extend(c.j for c in cls)
            assert sorted(seen) == list(range(p - 1))

    def test_rejects_non_divisor(self):
        ctx = build_context(7)
        with pytest.raises(ValueError):
            characters_of_order(ctx, 4)

    def test_orthogonality(self):
        for p in (7, 13, 31):
            ctx = build_context(p)
            chars = [Character(ctx, j) for j in range(p - 1)]
            for m in range(1, p):
                total = sum(char_eval(c, m) for c in chars)
                want = p - 1 if m == 1 else 0
                assert abs(total - want) < 1e-9 * (p - 1)

"""Character representation checks: the discrete-log table and its bound,
character values by index, order classes, orthogonality."""

import cmath
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpr import arith, characters
from sfpr.characters import PrimeContext, build_context


def oracle_legendre(a, p):
    """(a|p) by Euler's criterion, p an odd prime."""
    t = pow(a, (p - 1) // 2, p)
    return t - p if t > 1 else t


def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_order(a, p):
    x, k = a % p, 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def chi(ctx, j, m):
    """chi_j(m) as one complex number, read from ctx.values."""
    return complex(ctx.values([j], [m])[0, 0])


def order_by_values(ctx, j):
    """The least d >= 1 with chi_j^d = chi_{jd} principal on every unit."""
    n = ctx.p - 1
    units = np.arange(1, ctx.p)
    return next(d for d in range(1, n + 1) if np.allclose(ctx.values([j * d % n], units), 1))


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
        assert ctx.p1_primes == (2, 3)

    def test_fields_are_the_modulus_data(self):
        assert [f.name for f in dataclasses.fields(PrimeContext)] == ["p", "generator", "p1_primes"]

    def test_tables_built_on_first_read_and_kept(self):
        ctx = build_context(101)
        assert not any(isinstance(v, np.ndarray) for v in vars(ctx).values())
        for name in ("index_table", "roots_of_unity", "qr_signs", "is_pr_table"):
            table = getattr(ctx, name)
            assert isinstance(table, np.ndarray)
            assert getattr(ctx, name) is table

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
        assert ctx.p1_primes == tuple(q for q, _ in factorize(p - 1))
        assert pow(ctx.generator, (p - 1) // 2, p) == p - 1

    def test_index_roundtrip(self):
        ctx = build_context(101)
        ind = ctx.index_table
        for m in range(1, 101):
            assert pow(ctx.generator, int(ind[m]), 101) == m
        assert ind[1] == 0
        assert ind[ctx.generator] == 1

    @pytest.mark.parametrize("p", [3, 101, 211, 1009])
    def test_index_matches_powers(self, p):
        ctx = build_context(p)
        ind = ctx.index_table
        for k in range(p - 1):
            assert ind[pow(ctx.generator, k, p)] == k
            assert ind[(pow(ctx.generator, k, p) + 7 * p) % p] == k

    def test_index_table_permutation_small_primes(self):
        for p in arith.sieve_primes(4999)[1:]:
            p = int(p)
            ctx = build_context(p)
            ind = ctx.index_table
            assert ind[0] == 0
            assert sorted(ind[1:].tolist()) == list(range(p - 1))
            powers = [pow(ctx.generator, k, p) for k in range(p - 1)]
            assert ind[powers].tolist() == list(range(p - 1))

    def test_index_table_large_prime(self):
        p = 1048573
        # the table is built in rows of isqrt(p-1)+1 powers; here the last
        # row is partial
        assert (p - 1) % (math.isqrt(p - 1) + 1) != 0
        ctx = build_context(p)
        ind = ctx.index_table
        assert np.array_equal(np.sort(ind[1:]), np.arange(p - 1))
        rng = random.Random(1048573)
        for k in [0, 1, p - 2] + [rng.randrange(p - 1) for _ in range(997)]:
            assert ind[pow(ctx.generator, k, p)] == k

    @pytest.mark.parametrize(
        "p, block, whole",
        [
            (1123, 3 * 34, True),  # 33 rows of span 34: eleven blocks of three rows
            (1123, 1, True),  # one row a block
            (1123, 4 * 34, False),  # nine blocks, the last of one row
            (65537, characters._TABLE_BLOCK, False),  # just past the budget: two blocks
            (390001, characters._TABLE_BLOCK, True),  # six blocks of 104 rows of span 625
        ],
    )
    def test_index_table_in_blocks(self, monkeypatch, p, block, whole):
        # ind[g^k] = k for every k, whether p - 1 ends on a whole block or not
        monkeypatch.setattr(characters, "_TABLE_BLOCK", block)
        span = math.isqrt(p - 1) + 1
        assert ((p - 1) % (max(1, block // span) * span) == 0) == whole
        ctx = build_context(p)
        powers, v = [], 1
        for _ in range(p - 1):
            powers.append(v)
            v = v * ctx.generator % p
        ind = ctx.index_table
        assert ind.dtype == np.int32 and ind[0] == 0
        assert np.array_equal(ind[powers], np.arange(p - 1))

    def test_index_tiny_modulus(self):
        ctx = build_context(3)
        assert ctx.index_table.tolist() == [0, 0, 1]

    def test_index_table_refused_past_max_log_p(self):
        # 4194319 is the first prime past 2^22
        ctx = build_context(4194319)
        assert ctx.p > characters.MAX_LOG_P
        # lambdas, so each read runs inside pytest.raises
        for read in (lambda: ctx.index_table, lambda: ctx.is_pr_table, lambda: ctx.values([1], [2])):
            with pytest.raises(ValueError, match=f"MAX_LOG_P = {characters.MAX_LOG_P}"):
                read()
        assert not {"index_table", "roots_of_unity", "is_pr_table"} & set(vars(ctx))

    @pytest.mark.parametrize("n", [2, 3, 100, 4002, 99990, 1048572, 4194300])
    def test_roots_of_unity_bits(self, n):
        # built in place, bit for bit the plain expression; only p is read,
        # so n + 1 need not be prime
        ctx = PrimeContext(p=n + 1, generator=1, p1_primes=())
        assert ctx.roots_of_unity.tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()

    def test_roots_of_unity_one_array_of_n(self):
        n = 4194300
        ctx = PrimeContext(p=n + 1, generator=1, p1_primes=())
        tracemalloc.start()
        try:
            ctx.roots_of_unity
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * n  # the 16 n bytes of the result and no temporary

    def test_is_pr_table(self):
        ctx = build_context(13)
        table = ctx.is_pr_table
        want = {a for a in range(1, 13) if brute_order(a, 13) == 12}
        assert {a for a in range(13) if table[a]} == want

    def test_qr_signs_match_legendre(self):
        for p in (7, 11, 101):
            ctx = build_context(p)
            signs = ctx.qr_signs
            for a in range(p):
                assert int(signs[a]) == oracle_legendre(a, p)

    def test_qr_signs_match_euler_lanes_to_three_root_p(self):
        # the closed C_p route reads arith.legendre_at up to about 3 sqrt(p),
        # the direct one this table: the two sources agree where both are read
        rng = random.Random(31)
        ps = rng.sample(arith.sieve_primes(10**6)[1:].tolist(), 64)
        for p in ps:
            ns = np.arange(1, 3 * math.isqrt(p) + 2)
            assert arith.legendre_at(ns, p).tolist() == build_context(p).qr_signs[ns % p].tolist(), p


class TestCharacterValues:
    def test_principal_values(self):
        ctx = build_context(11)
        ms = np.arange(1, 23)
        want = np.where(ms % 11 == 0, 0, 1)
        assert np.allclose(ctx.values([0], ms)[0], want, rtol=0, atol=1e-12)

    def test_quadratic_is_legendre(self):
        for p in (3, 7, 11, 101):
            ctx = build_context(p)
            got = ctx.values([(p - 1) // 2], np.arange(2 * p))[0]
            want = [oracle_legendre(m, p) for m in range(2 * p)]
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_frozen_example_generator_value(self):
        # j=2 at the generator of p=7: exp(2 pi i / 3)
        ctx = build_context(7)
        assert chi(ctx, 2, 3) == pytest.approx(cmath.exp(2j * cmath.pi / 3))

    def test_periodicity(self):
        ctx = build_context(13)
        ms = np.arange(1, 13)
        assert np.allclose(ctx.values([5], ms), ctx.values([5], ms + 13), rtol=0, atol=1e-12)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_complete_multiplicativity(self, m, n):
        ctx = build_context(61)
        assert chi(ctx, 7, m * n) == pytest.approx(chi(ctx, 7, m) * chi(ctx, 7, n), abs=1e-12)

    def test_conjugate_pairs(self):
        # the conjugate of chi_j is chi_{-j mod p-1}
        ctx = build_context(29)
        ms = [2, 17, 23]
        for j in range(1, 28):
            bar = ctx.values([-j % 28], ms)[0]
            assert np.allclose(bar, np.conj(ctx.values([j], ms)[0]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [3, 101, 211, 1009])
    def test_eval_matches_power_oracle(self, p):
        ctx = build_context(p)
        logs = brute_logs(ctx.generator, p)
        for j in sorted({1, 7 % (p - 1), (p - 1) // 2, p - 2}):
            for m in sorted({2, 3, 55, p - 1, p + 2, 2 * p}):
                want = cmath.exp(2j * cmath.pi * j * logs[m % p] / (p - 1)) if m % p else 0
                assert chi(ctx, j, m) == pytest.approx(want, abs=1e-12)
        for m in range(1, p):
            euler = 1 if pow(m, (p - 1) // 2, p) == 1 else -1
            assert chi(ctx, (p - 1) // 2, m) == pytest.approx(euler, abs=1e-12)

    def test_no_table_per_character(self):
        ctx = build_context(101)
        g = ctx.generator
        for j in range(100):
            want = cmath.exp(2j * cmath.pi * j / 100)
            assert chi(ctx, j, g) == pytest.approx(want)
        # values are gathered on demand: nothing of length p stays behind,
        # neither as an attribute nor inside a container the context holds
        held = []
        for v in vars(ctx).values():
            held.extend(v.values() if isinstance(v, dict) else [v])
        assert not [v for v in held if isinstance(v, np.ndarray) and v.dtype.kind == "c" and len(v) == ctx.p]
        want = np.exp(2j * np.pi * np.arange(100) / 100)
        assert np.allclose(ctx.values(np.arange(100), [g])[:, 0], want, rtol=0, atol=1e-12)


class TestOrderClasses:
    """chi_j has order (p-1)/gcd(j, p-1), the order pr_decomposition reads
    from the index; checked here against the powers of the values."""

    def test_frozen_examples_p7(self):
        ctx = build_context(7)
        assert [j for j in range(6) if order_by_values(ctx, j) == 3] == [2, 4]
        assert [j for j in range(6) if order_by_values(ctx, j) == 2] == [3]
        assert [j for j in range(6) if order_by_values(ctx, j) == 1] == [0]

    def test_class_sizes_and_partition(self):
        for p in (7, 13, 61, 101):
            ctx = build_context(p)
            n = p - 1
            orders = [order_by_values(ctx, j) for j in range(n)]
            seen = []
            for d in oracle_divisors(n):
                cls = [j for j in range(n) if orders[j] == d]
                assert len(cls) == arith.euler_phi(d)
                for j in cls:
                    assert n // math.gcd(j, n) == d
                seen.extend(cls)
            assert sorted(seen) == list(range(n))

    def test_rejects_non_divisor(self):
        # no character has an order that does not divide p - 1
        ctx = build_context(7)
        assert [j for j in range(6) if order_by_values(ctx, j) == 4] == []

    def test_orthogonality(self):
        for p in (7, 13, 31):
            ctx = build_context(p)
            vals = ctx.values(np.arange(p - 1), np.arange(1, p))
            for m in range(1, p):
                total = vals[:, m - 1].sum()
                want = p - 1 if m == 1 else 0
                assert abs(total - want) < 1e-9 * (p - 1)

"""Oracle-backed tests for the arithmetic groundwork.

The oracles here (trial division, exhaustive order computation, gcd-counting
phi) are deliberately independent of the implementations they check.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpr import arith


def primes_of(n):
    """The distinct primes of n, ascending, read off arith.factorize."""
    return tuple(q for q, _ in arith.factorize(n))


def oracle_trial_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def oracle_order(a, p):
    x, k = a % p, 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def oracle_legendre(a, p):
    """(a|p) by Euler's criterion; a modulus other than an odd prime is refused."""
    if p < 3 or not oracle_is_prime(p):
        raise ValueError("legendre needs an odd prime modulus")
    t = pow(a, (p - 1) // 2, p)
    return t - p if t > 1 else t


def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestSieve:
    def test_pi_of_1e6(self):
        assert len(arith.sieve_primes(10**6)) == 78498

    def test_matches_trial_division(self):
        got = list(arith.sieve_primes(2000))
        want = [n for n in range(2, 2001) if oracle_is_prime(n)]
        assert got == want

    def test_small_limits(self):
        assert list(arith.sieve_primes(2)) == [2]
        assert list(arith.sieve_primes(3)) == [2, 3]
        assert list(arith.sieve_primes(4)) == [2, 3]

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            arith.sieve_primes(1)

    def test_segmented_agrees_with_simple(self):
        # force the segmented path and compare on a window
        seg = arith._sieve_segmented(10**5, 2)
        assert np.array_equal(seg, arith._sieve_simple(10**5))

    @pytest.mark.parametrize(
        "cutoff, segment", [(arith._SIMPLE_SIEVE_CUTOFF, arith._SEGMENT), (5000, 777)]
    )
    def test_window_is_the_full_sieve_from_lo(self, monkeypatch, cutoff, segment):
        # limits on both sides of the cutoff; seeded windows of up to three
        # segments, ones that start among the base primes up to sqrt(limit),
        # and empty ones
        monkeypatch.setattr(arith, "_SIMPLE_SIEVE_CUTOFF", cutoff)
        monkeypatch.setattr(arith, "_SEGMENT", segment)
        rng = random.Random(f"{cutoff}:{segment}")
        for limit in (cutoff - 1, cutoff, cutoff + 1, 2 * cutoff + rng.randrange(cutoff)):
            full = arith.sieve_primes(limit)
            assert np.array_equal(full, arith._sieve_simple(limit))
            starts = [limit - rng.randrange(3 * segment) for _ in range(4)]
            starts += [2, 3, rng.randrange(2, math.isqrt(limit)), limit, limit + 1]
            for lo in starts:
                got = arith.sieve_primes(limit, lo)
                assert got.dtype == np.int64
                assert np.array_equal(got, full[full >= lo]), (limit, lo)


    def test_one_list_per_process(self, monkeypatch):
        # shuffled limits, the last below every earlier one: each answer is
        # a read-only slice of the largest list so far, equal to a fresh
        # sieve, and only a limit above every earlier one sieves again
        monkeypatch.setattr(arith, "_sieved", (1, np.zeros(0, dtype=np.int64)))
        sieved = []
        fresh = arith._sieve_simple
        monkeypatch.setattr(arith, "_sieve_simple", lambda limit: sieved.append(limit) or fresh(limit))
        limits = [2, 3, 97, 1000, 3000, 4999, 5000, 10006, 10007]
        random.Random(29).shuffle(limits)
        for limit in [*limits, 13]:
            got = arith.sieve_primes(limit)
            assert np.array_equal(got, fresh(limit)), limit
            assert np.array_equal(arith.sieve_primes(limit, 90), got[got >= 90]), limit
            assert not got.flags.writeable
        assert sieved == [m for i, m in enumerate(limits) if m > max(limits[:i], default=1)]


class TestIsPrime:
    def test_against_sieve(self):
        ps = set(int(p) for p in arith.sieve_primes(10**4))
        for n in range(10**4 + 1):
            assert arith.is_prime(n) == (n in ps)

    def test_carmichael_composites(self):
        assert not arith.is_prime(561)
        assert not arith.is_prime(1105)
        assert not arith.is_prime(825265)

    def test_large_known(self):
        assert arith.is_prime(2**61 - 1)
        assert arith.is_prime(10**9 + 7)
        assert not arith.is_prime((2**31 - 1) * (2**31 + 11))

    def test_against_sieve_across_witness_bound(self):
        # crosses 1 373 653, where the witness set grows from {2, 3}
        limit = 3_300_000
        want = np.zeros(limit + 1, dtype=bool)
        want[arith.sieve_primes(limit)] = True
        got = np.fromiter((arith.is_prime(n) for n in range(limit + 1)), dtype=bool, count=limit + 1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "factors",
        [
            (829, 1657),  # 1373653, least strong pseudoprime to bases 2, 3
            (2251, 11251),  # 25326001, to 2, 3, 5
            (151, 751, 28351),  # 3215031751, to 2, 3, 5, 7
            (6763, 10627, 29947),  # 2152302898747, to 2, ..., 11
            (1303, 16927, 157543),  # 3474749660383, to 2, ..., 13
            (10670053, 32010157),  # 341550071728321, to 2, ..., 17
            (149491, 747451, 34233211),  # 3825123056546413051, to 2, ..., 23
        ],
    )
    def test_strong_pseudoprimes_at_witness_bounds(self, factors):
        assert not arith.is_prime(math.prod(factors))


class TestFactorize:
    def test_frozen_example(self):
        assert arith.factorize(1052040) == (
            (2, 3),
            (3, 1),
            (5, 1),
            (11, 1),
            (797, 1),
        )

    def test_primes_computed_once(self, monkeypatch):
        # the primes are read off the pairs once; least_primitive_root takes
        # them and factors nothing (23 is g(1052041) by the order oracle)
        assert primes_of(2**4 * 3 * 101) == (2, 3, 101)
        qs = primes_of(1052040)
        monkeypatch.setattr(arith, "factorize", None)
        assert arith.least_primitive_root(1052041, qs) == 23

    def test_one(self):
        assert arith.factorize(1) == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            arith.factorize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_and_oracle(self, n):
        fac = arith.factorize(n)
        assert fac == oracle_trial_factor(n)
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n

    def test_semiprime_rho_path(self):
        n = 1000003 * 1000033
        assert arith.factorize(n) == ((1000003, 1), (1000033, 1))

    def test_prime_power_rho_path(self):
        q = 1000003
        assert arith.factorize(q * q) == ((q, 2),)

    def test_two_primes_just_above_trial_limit(self):
        assert arith.factorize(100003 * 100019) == ((100003, 1), (100019, 1))
        assert arith.factorize(2 * 3 * 100003 * 100019) == (
            (2, 1), (3, 1), (100003, 1), (100019, 1),
        )

    def test_matches_smallest_prime_factor_oracle(self):
        limit = 200_000
        spf = np.zeros(limit + 1, dtype=np.int64)
        for d in range(limit, 1, -1):
            spf[d::d] = d  # the last write, by the smallest d, wins
        for n in range(1, limit + 1):
            want, m = {}, n
            while m > 1:
                d = int(spf[m])
                want[d] = want.get(d, 0) + 1
                m //= d
            assert arith.factorize(n) == tuple(sorted(want.items())), n

    def test_no_primality_test_when_trial_division_finishes(self, monkeypatch):
        tested = []
        is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
        assert primes_of(1052041 - 1) == (2, 3, 5, 11, 797)
        assert primes_of(2 * 999983) == (2, 999983)
        assert tested == []


class TestMultiplicativeFunctions:
    def test_phi_frozen(self):
        assert arith.euler_phi(1052040) == 254720

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_phi_divisor_sum(self, n):
        assert sum(arith.euler_phi(d) for d in oracle_divisors(n)) == n

    @given(st.integers(min_value=2, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_mobius_divisor_sum(self, n):
        assert sum(arith.mobius(d) for d in oracle_divisors(n)) == 0

    def test_mobius_values(self):
        assert [arith.mobius(n) for n in (1, 2, 4, 6, 30, 12)] == [1, -1, 0, 1, -1, 0]

    def test_mobius_table_matches_pointwise(self):
        mu = arith.mobius_table(2000)
        for n in range(1, 2001):
            assert int(mu[n]) == arith.mobius(n)
        assert arith.mobius_table(1).tolist() == [0, 1]

    def test_mobius_table_one_per_process(self, monkeypatch):
        # shuffled limits, the last below every earlier one: each answer is
        # a read-only slice of the largest table so far, equal to mobius
        # pointwise, and only a limit above every earlier one builds again
        monkeypatch.setattr(arith, "_mobius", np.zeros(1, dtype=np.int8))
        limits = [1, 2, 30, 500, 1999, 2000, 777]
        random.Random(29).shuffle(limits)
        want = [0] + [arith.mobius(n) for n in range(1, 2001)]
        built = {}  # id -> table; holding each table keeps its id unique
        for limit in [*limits, 12]:
            mu = arith.mobius_table(limit)
            built[id(arith._mobius)] = arith._mobius
            assert mu.dtype == np.int8 and not mu.flags.writeable
            assert mu.tolist() == want[: limit + 1], limit
        assert len(built) == len({max(limits[: i + 1]) for i in range(len(limits))})

    def test_divisors(self):
        assert oracle_divisors(12) == [1, 2, 3, 4, 6, 12]


class TestLegendre:
    def test_quadratic_residues_mod_7(self):
        qrs = {a for a in range(1, 7) if oracle_legendre(a, 7) == 1}
        assert qrs == {1, 2, 4}

    def test_multiple_of_p(self):
        assert oracle_legendre(14, 7) == 0

    def test_euler_criterion_exhaustive(self):
        for p in (3, 5, 11, 13):
            squares = {a * a % p for a in range(1, p)}
            for a in range(1, p):
                assert oracle_legendre(a, p) == (1 if a in squares else -1)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_multiplicative(self, a, b):
        p = 1009
        assert oracle_legendre(a * b, p) == oracle_legendre(a, p) * oracle_legendre(b, p)

    def test_rejects_bad_modulus(self):
        for p in (2, 9, 15, 1):
            with pytest.raises(ValueError):
                oracle_legendre(3, p)


class TestPrimitiveRoots:
    def test_least_frozen(self):
        assert arith.least_primitive_root(3, (2,)) == 2
        assert arith.least_primitive_root(5, (2,)) == 2
        assert arith.least_primitive_root(7, (2, 3)) == 3
        assert arith.least_primitive_root(41, (2, 5)) == 6

    def test_least_against_order_oracle(self):
        for p in (3, 5, 7, 11, 13, 41, 101):
            want = next(a for a in range(2, p) if oracle_order(a, p) == p - 1)
            assert arith.least_primitive_root(p, primes_of(p - 1)) == want

    def test_rejects_bad_modulus(self):
        for p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                arith.least_primitive_root(p, ())

    def test_least_with_given_factorization(self):
        # the primes of p - 1 from the trial-division oracle, and g(p) as the
        # least a with a^((p-1)/q) != 1 for each of them
        for p in (3, 7, 41, 1052041):
            given = tuple(q for q, _ in oracle_trial_factor(p - 1))
            want = next(a for a in range(2, p) if all(pow(a, (p - 1) // q, p) != 1 for q in given))
            assert arith.least_primitive_root(p, given) == want

    def test_least_rejects_wrong_factorization(self):
        with pytest.raises(ValueError):
            arith.least_primitive_root(41, primes_of(42))

    @pytest.mark.parametrize("qs", [(2,), (5,), (1, 2, 5), (2, 5, 7)])
    def test_least_rejects_incomplete_primes(self, qs):
        # (2,) alone would make 3, of order 8 mod 41, pass as g(41)
        with pytest.raises(ValueError, match="not those of p - 1 = 40"):
            arith.least_primitive_root(41, qs)

    def test_least_with_factorization_still_checks_modulus(self):
        with pytest.raises(ValueError, match="modulus must be an odd prime"):
            arith.least_primitive_root(9, primes_of(8))

    def test_is_primitive_root_exhaustive(self):
        for p in (3, 5, 7, 11, 13):
            qs = primes_of(p - 1)
            for a in range(0, 3 * p):
                want = a % p != 0 and oracle_order(a, p) == p - 1
                assert arith.is_primitive_root(a, p, qs) == want


class TestIcbrt:
    @given(st.integers(min_value=0, max_value=10**18))
    @settings(max_examples=200, deadline=None)
    def test_floor_property(self, n):
        r = arith.icbrt(n)
        assert r**3 <= n < (r + 1) ** 3

    def test_exact_cubes(self):
        for k in (0, 1, 2, 10, 10**6):
            assert arith.icbrt(k**3) == k


class TestLanes:
    def test_pow_mod_matches_pow(self):
        rng = np.random.default_rng(7)
        top = arith.MAX_INT64_MODULUS
        mod = np.concatenate([rng.integers(2, 10**6, 500), rng.integers(top - 10**6, top + 1, 500)])
        base = rng.integers(0, 2**62, len(mod))
        exp = rng.integers(0, 2**40, len(mod))
        exp[:3] = 0
        # edge lanes: exp 0 and 1, base mod - 1, the least odd prime modulus and the bound
        edges = np.array(
            [(b, e, m) for m in (3, top) for b in (0, 1, 2, m - 1, m + 1) for e in (0, 1, 2, m - 1)],
            dtype=np.int64,
        )
        base, exp, mod = (np.concatenate([a, edges[:, i]]) for i, a in enumerate((base, exp, mod)))
        got = arith.pow_mod_lanes(base, exp, mod)
        assert got.tolist() == [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mod)]
        empty = np.array([], dtype=np.int64)
        assert arith.pow_mod_lanes(empty, empty, empty).shape == (0,)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_pow_mod_every_exponent_length(self, bits):
        # one and two 2-bit digits and more, with the top digit 1, 2 or 3
        rng = np.random.default_rng(bits)
        mod = rng.integers(3, 10**6, 300)
        base = rng.integers(0, 10**9, 300)
        exp = rng.integers(1 << (bits - 1), 1 << bits, 300)
        got = arith.pow_mod_lanes(base, exp, mod)
        assert got.tolist() == [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mod)]

    def test_pow_mod_mixed_lengths_and_zero_exponents(self):
        # short exponents ride with long ones, whose leading digits are 0 for them
        rng = np.random.default_rng(11)
        mod = rng.integers(3, 10**6, 400)
        base = rng.integers(2, 10**6, 400)
        exp = rng.integers(0, 1 << 8, 400) >> rng.integers(0, 9, 400)
        exp[::7] = 0
        exp[1] = (1 << 21) - 1
        got = arith.pow_mod_lanes(base, exp, mod)
        assert got.tolist() == [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mod)]
        assert got[::7].tolist() == [1] * len(got[::7])

    def test_bound_is_the_largest_int64_square(self):
        m = arith.MAX_INT64_MODULUS
        assert (m - 1) ** 2 < m**2 < 2**63 <= (m + 1) ** 2

    def test_prime_factors_match_factorize(self):
        ns = np.arange(1, 5001, dtype=np.int64)
        got = arith.prime_factors_lanes(ns)
        for n, row in zip(ns, got):
            assert tuple(row[row > 0].tolist()) == primes_of(int(n)), n

    def test_prime_factors_window_below_the_bound(self):
        top = arith.MAX_INT64_MODULUS
        ns = np.arange(top - 3000, top + 1, 7, dtype=np.int64)
        got = arith.prime_factors_lanes(ns)
        for n, row in zip(ns, got):
            assert tuple(row[row > 0].tolist()) == primes_of(int(n)), n

    def test_prime_factors_one_and_empty(self):
        assert arith.prime_factors_lanes(np.array([1], dtype=np.int64)).shape == (1, 0)
        assert arith.prime_factors_lanes(np.array([2], dtype=np.int64)).tolist() == [[2]]
        assert arith.prime_factors_lanes(np.array([], dtype=np.int64)).shape[0] == 0

    @pytest.mark.parametrize("ell", [int(q) for q in arith.sieve_primes(113)])
    def test_legendre_by_reciprocity(self, ell):
        ps = arith.sieve_primes(20000)[1:]
        got = arith.legendre_lanes(ell, ps)
        assert got.tolist() == [oracle_legendre(ell, int(p)) for p in ps]

    # 3037000493 is the largest prime up to MAX_INT64_MODULUS = 3037000499
    @pytest.mark.parametrize("p", [3, 5, 1000003, 3037000493])
    def test_legendre_at_by_euler(self, p):
        rng = np.random.default_rng(p % 1009)
        ns = np.concatenate([[1, 2, p - 1, p, 2 * p], rng.integers(1, 3 * p, 300)])
        got = arith.legendre_at(ns, p)
        assert got.dtype == np.int8
        assert oracle_is_prime(p)
        euler = [pow(n, (p - 1) // 2, p) for n in ns.tolist()]
        assert got.tolist() == [t - p if t > 1 else t for t in euler]

    def test_legendre_at_refuses_past_the_bound(self):
        top = arith.MAX_INT64_MODULUS
        assert oracle_is_prime(3037000493) and not any(map(oracle_is_prime, range(3037000494, top + 1)))
        assert oracle_is_prime(3037000507)
        for p in (3037000507, 2, 9, 1):
            with pytest.raises(ValueError, match="odd prime"):
                arith.legendre_at(np.array([1, 2], dtype=np.int64), p)

"""Square-full enumeration tests: frozen small sets, the a^2 b^3 count, and
asymptotic sanity."""

import itertools
import math
import random

import numpy as np
import pytest

from sfpr import squarefull
from sfpr.arith import mobius, mobius_table

SQUAREFULL_TO_100 = [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]
PRIME_POWERFUL_TO_1000 = [32, 72, 108, 200, 243, 392, 500, 675, 968]


def oracle_is_squarefull(n):
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
    return n >= 1 and all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def squarefull_upto(x):
    """The square-full m <= x, ascending: the head of the unbounded stream."""
    return itertools.takewhile(lambda m: m <= x, squarefull.squarefull_stream())


class TestEnumeration:
    def test_matches_filter_oracle(self):
        got = list(squarefull_upto(10**4))
        want = [n for n in range(1, 10**4 + 1) if oracle_is_squarefull(n)]
        assert got == want

    def test_ascending_no_duplicates(self):
        seq = list(squarefull_upto(10**6))
        assert all(a < b for a, b in itertools.pairwise(seq))

    def test_count_matches_enumeration(self):
        for x in (1, 100, 12345, 10**4, 10**6):
            n = squarefull.squarefull_runs(x)[1].sum()
            assert n == sum(1 for _ in squarefull_upto(x))

    def test_unbounded_stream_prefix(self):
        stream = squarefull.squarefull_stream()
        assert [next(stream) for _ in range(14)] == SQUAREFULL_TO_100

    def test_asymptotic_two_term(self):
        # count(x) = (zeta(3/2)/zeta(3)) sqrt(x) + (zeta(2/3)/zeta(2)) x^(1/3) + O(x^(1/6));
        # at x = 1e10 the single-term ratio is off by ~1.5%, the two-term form by ~2.
        z32_over_z3 = 2.6123753486854883 / 1.2020569031595943
        z23_over_z2 = -2.447580736155452 / (math.pi**2 / 6)
        x = 10**10
        n = squarefull.squarefull_runs(x)[1].sum()
        assert n == 214122
        two_term = z32_over_z3 * math.sqrt(x) + z23_over_z2 * x ** (1 / 3)
        assert abs(n - two_term) < 25
        assert abs(n / math.sqrt(x) - z32_over_z3) / z32_over_z3 < 0.02


class TestSquarefreeTable:
    def test_frozen_counts(self):
        assert int(squarefull.squarefree_table(100).sum()) == 61
        assert int(squarefull.squarefree_table(10**6).sum()) == 607926

    def test_inclusion_exclusion_oracle(self):
        x = 10**6
        want = sum(mobius(d) * (x // (d * d)) for d in range(1, 1001))
        assert int(squarefull.squarefree_table(x).sum()) == want

    def test_matches_mobius_table(self):
        for x in [*range(1, 2001), 10**6]:
            want = mobius_table(x) != 0
            assert np.array_equal(squarefull.squarefree_table(x), want), x

    def test_squarefree_numbers_prefix(self):
        # the source of the square-full stream's b and of the square-free candidates
        want = np.flatnonzero(squarefull.squarefree_table(10**4))[1:].tolist()
        assert list(itertools.islice(squarefull.squarefree_numbers(), len(want))) == want

    def test_complement_of_squarefull_overlap(self):
        # 1 is both square-free and square-full; below 100 nothing else is
        sf = squarefull.squarefree_table(100)
        both = [n for n in SQUAREFULL_TO_100 if sf[n]]
        assert both == [1]


class TestOncePerProcess:
    # squarefree_table is a slice of one grow-only table; the run builders are
    # memoized by x; every array either hands out is read-only
    RUNS = (squarefull.squarefree_runs, squarefull.squarefull_runs, squarefull.prime_powerful_runs)
    XS = [1, 7, 8, 27, 10**6, *random.Random(0).sample(range(2, 10**6), 32)]

    def test_table_grows_as_a_prefix(self, monkeypatch):
        monkeypatch.setattr(squarefull, "_squarefree", np.zeros(1, dtype=bool))
        want = [oracle_is_squarefree(m) for m in range(3001)]
        for x in (0, 1000, 3000, 1000, 7):
            assert squarefull.squarefree_table(x).tolist() == want[: x + 1], x
        assert len(squarefull._squarefree) == 3001

    @pytest.mark.parametrize("build", RUNS, ids=lambda f: f.__name__)
    def test_memo_matches_uncached_body(self, build):
        for x in self.XS:
            for got in (build(x), build(x)):  # a miss or a hit, then a hit
                want = build.__wrapped__(x)
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want)), x

    @pytest.mark.parametrize("build", [*RUNS, squarefull.squarefree_table], ids=lambda f: f.__name__)
    def test_returned_arrays_read_only(self, build):
        for x in (1, 8, 10**4):
            out = build(x)
            for a in out if isinstance(out, tuple) else (out,):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0


@pytest.mark.parametrize("p, x", [(3, 10**4 + 7), (101, 10**5), (4003, 10**6 + 1)])
def test_squarefree_walk_int32_chunks(monkeypatch, p, x):
    # chunks of 3 rows, some rows left over, summed in int32 and added in
    # int64: the one int64 fold of every row and the tail
    t = squarefull.squarefree_table(x).view(np.uint8)
    rows = len(t) // p
    want = t[: rows * p].reshape(rows, p).sum(axis=0, dtype=np.int64)
    want[: len(t) - rows * p] += t[rows * p :]
    monkeypatch.setattr(squarefull, "_SUM_ROWS", 3)
    got = squarefull.squarefree_walk(p, x)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def prime_powerful_members(x, p):
    """h[m] = the number of ways m = q^2 r^3 for each m <= x: the walk
    histogram mod a prime p > x, where each residue is one integer."""
    assert p > x
    return squarefull.prime_powerful_walk(p, x)[: x + 1]


def oracle_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimePowerful:
    def test_frozen_set(self):
        assert np.flatnonzero(prime_powerful_members(1000, 1009)).tolist() == PRIME_POWERFUL_TO_1000

    def test_fifth_powers_included(self):
        vals = prime_powerful_members(10**5, 100003)
        assert vals[32] and vals[243] and vals[3125] and vals[7**5]

    def test_subset_of_squarefull(self):
        sq = set(squarefull_upto(10**5))
        assert set(np.flatnonzero(prime_powerful_members(10**5, 100003)).tolist()) <= sq

    def test_unique_representation(self):
        assert prime_powerful_members(10**6, 1000003).max() == 1

    def test_empty_below_32(self):
        assert not prime_powerful_members(31, 37).any()

    def test_runs_match_brute_oracle(self):
        primes = [n for n in range(2, 2001) if oracle_is_prime(n)]
        members = sorted(a * a * v**3 for v in primes for a in primes if a * a * v**3 <= 2000)
        for x in range(1, 2001):
            q, r, k = squarefull.prime_powerful_runs(x)
            cbrt = max(c for c in range(1, 13) if c**3 <= x)
            assert q.tolist() == [n for n in primes if n <= max(math.isqrt(x // 8), cbrt, 2)], x
            assert r.tolist() == [n for n in primes if n**3 <= x], x
            assert k.tolist() == [sum(n * n * v**3 <= x for n in primes) for v in r.tolist()], x
            runs = sorted(int(a) ** 2 * int(v) ** 3 for v, c in zip(r, k) for a in q[:c])
            assert runs == [m for m in members if m <= x], x

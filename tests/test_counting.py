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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpr import arith, counting, squarefull
from sfpr.characters import Character, PrimeContext, build_context, characters_of_order
from sfpr.charsums import sum_char_prime_powerful, sum_char_squarefree, sum_char_squarefull
from sfpr.counting import (
    CSV_HEADER,
    HypothesisReport,
    count_by_target,
    family_charsums,
    hypothesis_scan,
    least_squarefree_pr,
    least_squarefull_pr,
    pr_decomposition,
    pr_indicator_charsum,
    scan_range,
    scan_record,
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


def test_indicator_frozen_p7():
    ctx = build_context(7)
    assert pr_indicator_charsum(ctx, 3) == pytest.approx(1.0, abs=1e-12)
    assert pr_indicator_charsum(ctx, 2) == pytest.approx(0.0, abs=1e-12)
    assert pr_indicator_charsum(ctx, 7) == 0.0


@given(st.sampled_from([7, 11, 13, 101]), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_indicator_matches_order_test(p, m):
    ctx = build_context(p)
    want = 1.0 if m % p and oracle_order(m, p) == p - 1 else 0.0
    assert pr_indicator_charsum(ctx, m) == pytest.approx(want, abs=1e-9)


def test_pr_decomposition_weights_by_order():
    for p in (3, 7, 13, 31, 101, 211):
        ctx = build_context(p)
        n = p - 1
        want = np.zeros(n)
        for d in arith.divisors(n):
            for chi in characters_of_order(ctx, d):
                want[chi.j] = arith.mobius(d) / arith.euler_phi(d)
        w = pr_decomposition(ctx)
        assert np.array_equal(w, want)
        assert np.count_nonzero(w) == np.prod(ctx.p1_primes)


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
@pytest.mark.parametrize("x", [100, 10**4])
@pytest.mark.parametrize("target", ["squarefull", "S", "squarefree"])
def test_family_charsums_full_spectrum(p, x, target):
    ctx = build_context(p)
    sums = family_charsums(ctx, x, target)
    assert sums.shape == (p - 1,)
    assert sums[0] == sum(1 for m in oracle_members(target, x) if m % p)
    for j in range(p - 1):
        want = _FACTORED[target](ctx, Character(ctx, j), x, route="factored").value
        assert abs(sums[j] - want) <= 1e-9 * max(1.0, abs(want)), j


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


def test_checked_characters_fixed_sample():
    assert counting._checked_characters(11, 100, "S") == list(range(10))
    js = counting._checked_characters(4003, 10**6, "squarefree")
    assert js == counting._checked_characters(4003, 10**6, "squarefree")
    assert js[:2] == [0, 2001] and len(set(js)) == 10
    assert js != counting._checked_characters(4003, 10**6, "squarefull")


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


def test_least_squarefull_ceiling():
    with pytest.raises(ArithmeticError):
        least_squarefull_pr(build_context(11), ceiling=4)


def test_least_squarefull_every_prime_below_3000():
    ps = [p for p in range(3, 3000, 2) if oracle_is_prime(p)]
    assert len(ps) == 429
    for p in ps:
        assert least_squarefull_pr(build_context(p)) == oracle_least_squarefull_pr(p), p


def test_least_squarefree_every_prime_below_3000():
    ps = [p for p in range(3, 3000, 2) if oracle_is_prime(p)]
    for p in ps:
        assert least_squarefree_pr(build_context(p)) == oracle_least_squarefree_pr(p), p


def test_shared_squarefree_candidates():
    want = [m for m in range(2, 5000) if oracle_is_squarefree(m)]
    assert counting._squarefree_above_one(len(want))[: len(want)] == want


def test_shared_candidates_are_squarefull_nonsquares():
    want = [m for m in squarefull.enumerate_squarefull(10**6) if math.isqrt(m) ** 2 != m]
    assert want[:4] == [8, 27, 32, 72]
    assert counting._nonsquare_squarefull(len(want))[: len(want)] == want


def test_hypothesis_scan_matches_pinned_pairs():
    pinned_file = Path(__file__).resolve().parent.parent / "perfbench" / "hypothesis_1100000.json"
    pinned = json.loads(pinned_file.read_text())
    assert len(pinned) == 114
    rep = hypothesis_scan(1_100_000, jobs=2)
    assert [list(pair) for pair in rep.exceptional] == pinned
    assert rep.largest == 1052041


# -- the lane search of a block ---------------------------------------------

_LANE_LIMIT = 200_000


def test_lane_search_matches_scalar_route():
    blocks = counting._prime_blocks(3, _LANE_LIMIT, 4096)
    ps = np.concatenate(blocks)
    assert {3, 5, 7, 17, 257, 65537} <= set(ps.tolist())
    got = np.concatenate([counting._lane_search(b) for b in blocks])
    for p, g in zip(ps.tolist(), got.tolist()):
        assert g == least_squarefull_pr(build_context(p)), p


def test_block_factorization_matches_factorize():
    for block in counting._prime_blocks(3, _LANE_LIMIT, 4096):
        rows = arith.prime_factors_lanes(block - 1)
        for p, row in zip(block.tolist(), rows):
            assert tuple(row[row > 0].tolist()) == arith.factorize(p - 1).primes, p


def test_lane_tail_reached():
    # 1052041 is the largest prime below 1.1e6 whose g_sf exceeds it: its
    # search runs past the lanes' head into the scalar tail
    ps = arith.sieve_primes(1052041)[-3:]
    got = counting._lane_search(ps).tolist()
    assert got == [least_squarefull_pr(build_context(int(p))) for p in ps]
    assert got[-1] > counting._lane_head()[0][-1]


def test_lane_search_skips_multiples_of_p(monkeypatch):
    # 200 = 5^2 2^3 is a non-residue by its b = 2, (2|5) = -1, yet 0 mod 5
    head = (np.array([200, 8]), np.array([2]), np.array([[1, 1]]))
    monkeypatch.setattr(counting, "_lane_head", lambda: head)
    assert counting._lane_search(np.array([5])).tolist() == [8]


def _corrupt(monkeypatch, pick):
    search = counting._lane_search

    def wrong(ps):
        g = search(ps)
        i = pick(ps, g)
        if i is not None:
            g[i] += 1
        return g

    monkeypatch.setattr(counting, "_lane_search", wrong)


def test_corrupt_lane_result_of_sampled_prime_raises(monkeypatch):
    # blocks no longer than the sample are checked at every prime
    assert counting.CROSS_CHECK_SAMPLE >= 16
    _corrupt(monkeypatch, lambda ps, g: 9 if len(ps) > 9 else None)
    with pytest.raises(ArithmeticError, match="lane search"):
        hypothesis_scan(2000, block_size=16)


def test_corrupt_lane_result_of_reported_prime_raises(monkeypatch):
    _corrupt(monkeypatch, lambda ps, g: 2 if ps[2] == 7 else None)
    with pytest.raises(ArithmeticError, match=r"g_sf\(7\)"):
        hypothesis_scan(100_000, block_size=4096)


def test_cross_check_covers_reported_and_sampled_primes(monkeypatch):
    checked = []
    search = counting.least_squarefull_pr

    def record(ctx, *args):
        if isinstance(ctx, PrimeContext):  # not the lane search's own tail
            checked.append(ctx.p)
        return search(ctx, *args)

    monkeypatch.setattr(counting, "least_squarefull_pr", record)
    rep = hypothesis_scan(_LANE_LIMIT, block_size=4096)
    want = {p for p, _ in rep.exceptional}
    for block in counting._prime_blocks(3, _LANE_LIMIT, 4096):
        rng = random.Random(f"{int(block[0])}")
        picks = rng.sample(range(len(block)), min(len(block), counting.CROSS_CHECK_SAMPLE))
        want |= {int(block[i]) for i in picks}
    assert sorted(checked) == sorted(want)


def test_hypothesis_rejects_limit_past_int64_lanes(monkeypatch):
    monkeypatch.setattr(arith, "sieve_primes", lambda n: pytest.fail("sieved"))
    with pytest.raises(ValueError, match=str(arith.MAX_INT64_MODULUS)):
        hypothesis_scan(arith.MAX_INT64_MODULUS + 1)


# -- scans ------------------------------------------------------------------


def test_scan_record_frozen_rows():
    assert scan_record(3).csv_row() == "3,8,2,2,2.666667,1"
    assert scan_record(7).csv_row() == "7,108,3,3,15.428571,2"
    assert scan_record(5).csv_row() == "5,8,2,2,1.600000,1"
    assert CSV_HEADER == "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"


def test_scan_range_3_to_100():
    records = scan_range(3, 100)
    assert len(records) == 24
    assert [r.p for r in records] == sorted(r.p for r in records)
    assert records[0].csv_row().startswith("3,8,2,2")
    for r in records:
        assert r.g_least_pr <= r.g_squarefree


def test_scan_csv_to_1e5_pinned():
    # sha256 of `sfpr scan --from 3 --to 100000` from before the shared
    # square-free candidate list
    rows = [CSV_HEADER, *(r.csv_row() for r in scan_range(3, 100_000, jobs=2))]
    digest = hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()
    assert digest == "cfe85c7bd96840c359f78fb6b39e4d2fb16643e64c44aa08cb9e072ea2eb9501"


def test_scan_jobs_independent():
    one = scan_range(3, 2000, jobs=1, block_size=16)
    two = scan_range(3, 2000, jobs=2, block_size=16)
    assert [r.csv_row() for r in one] == [r.csv_row() for r in two]


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
        (lambda jobs: scan_range(3, 100, jobs=jobs, block_size=16), 16, [2]),
        (lambda jobs: hypothesis_scan(2000, jobs=jobs, block_size=64), 16, [5]),
        (lambda jobs: hypothesis_scan(2000, jobs=jobs, block_size=64), 3, [3]),
        (lambda jobs: scan_range(3, 10, jobs=jobs, block_size=16), 16, []),
    ],
)
def test_pool_workers_capped_by_blocks(monkeypatch, run, jobs, want):
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


def test_hypothesis_scan_small():
    rep = hypothesis_scan(2000, jobs=2, block_size=64)
    assert isinstance(rep, HypothesisReport)
    pairs = dict(rep.exceptional)
    assert pairs[3] == 8 and pairs[5] == 8 and pairs[7] == 108
    assert all(g >= p for p, g in rep.exceptional)
    ps = [p for p, _ in rep.exceptional]
    assert ps == sorted(ps)
    assert rep.largest == ps[-1]
    inline = hypothesis_scan(2000, jobs=1, block_size=64)
    assert inline.exceptional == rep.exceptional


def test_hypothesis_progress_callback():
    seen = []
    hypothesis_scan(100, progress=lambda done, total: seen.append((done, total)))
    assert seen and seen[-1][0] == seen[-1][1]

"""Analytic constants against independent oracles.

zeta gets a second route (Euler-Maclaurin with Bernoulli corrections),
L-values get the Hurwitz-zeta decomposition through mpmath, li gets the
exponential-integral identity through scipy.special.expi, the numpy
incomplete gamma and Hurwitz zeta get mpmath at the same float arguments,
and the direct series get coarse partial-sum brackets with positive tails.
None of these share code with the implementations under test.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expi
from scipy.special import zeta as scipy_hurwitz

from sfpr import analytics, arith
from sfpr.analytics import (
    ConstantsReport,
    L_quadratic,
    compute_Cp,
    constants_report,
    corollary_constants,
    cp_lower_ratio,
    cp_ratio_sweep,
    li,
    main_term_by_target,
    prime_powerful_main_term,
    shapiro_c,
    squarefree_pr_main_term,
    squarefull_charsum_main_term,
    squarefull_pr_main_term,
    zeta,
)
from sfpr.characters import build_context
from sfpr.charsums import sum_char_squarefull
from sfpr.characters import principal, quadratic

mp.mp.dps = 25

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)
_FACTORIALS = (2, 24, 720, 40320, 3628800)


def em_zeta(s, N=30):
    """Euler-Maclaurin oracle, valid for s > 0 here."""
    total = sum(n**-s for n in range(1, N + 1))
    total += N ** (1 - s) / (s - 1) - 0.5 * N**-s
    for k, (b, f) in enumerate(zip(_BERNOULLI, _FACTORIALS), start=1):
        poch = 1.0
        for j in range(2 * k - 1):
            poch *= s + j
        total += b / f * poch * N ** (-s - 2 * k + 1)
    return total


@functools.lru_cache(maxsize=None)
def hurwitz_L(p, s=1.5):
    tot = mp.mpf(0)
    for a in range(1, p):
        tot += arith.legendre(a, p) * mp.zeta(s, mp.mpf(a) / p)
    return float(tot / mp.mpf(p) ** s)


# -- zeta --------------------------------------------------------------------


def test_zeta_frozen_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-13)
    assert zeta(3.0) == pytest.approx(1.2020569031595943, abs=1e-13)
    assert zeta(1.5) == pytest.approx(2.6123753486854883, abs=1e-12)
    assert zeta(2.0 / 3.0) == pytest.approx(-2.4475807362336579, abs=1e-12)


@pytest.mark.parametrize("s", [2.0 / 3.0, 1.5, 2.0, 3.0])
def test_zeta_correctly_rounded_at_constant_arguments(s):
    # the arguments every constant uses: within half an ulp of mpmath at 40
    # digits, evaluated at the same float s
    with mp.workdps(40):
        want = mp.zeta(mp.mpf(s))
        assert abs(mp.mpf(zeta(s)) - want) <= mp.mpf(math.ulp(float(want))) / 2


@pytest.mark.parametrize("s", [0.25, 2.0 / 3.0, 1.5, 2.0, 3.0, 4.5])
def test_zeta_matches_euler_maclaurin(s):
    assert zeta(s) == pytest.approx(em_zeta(s), abs=5e-12)


def test_zeta_direct_series_bracket():
    n = 20000
    partial = sum(k**-3.0 for k in range(1, n + 1))
    assert partial + 0.5 / (n + 1) ** 2 < zeta(3.0) < partial + 0.5 / n**2


def test_zeta_domain():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.0)
    with pytest.raises(ValueError):
        zeta(-2.0)


# -- numpy special functions -------------------------------------------------

# log and linear points from 1e-8 to 60, with both sides of the switch from
# the power series to the continued fraction
_GAMMA_GRID = np.unique(
    np.concatenate(
        [
            np.geomspace(1e-8, 60.0, 241),
            np.linspace(0.05, 60.0, 240),
            np.nextafter(analytics._GAMMA_SWITCH, [0.0, np.inf]),
            [analytics._GAMMA_SWITCH],
        ]
    )
)


@pytest.mark.parametrize("a", [0.25, 0.75, 1.25])
def test_upper_gamma_vs_mpmath(a):
    # scipy's gammaincc(a, x) * gamma(a) is off by up to 1.3e-14 near x = 1
    got = analytics._upper_gamma(a, _GAMMA_GRID)
    want = np.array([float(mp.gammainc(a, mp.mpf(float(x)))) for x in _GAMMA_GRID])
    assert np.max(np.abs(got - want) / want) <= 1.2e-14


def test_hurwitz_zeta_vs_mpmath():
    q = np.unique(np.concatenate([np.geomspace(1e-6, 1.0, 241), np.linspace(0.005, 1.0, 200)]))
    got, remainder = analytics._hurwitz_zeta(1.5, q)
    want = np.array([float(mp.zeta(1.5, mp.mpf(float(v)))) for v in q])
    assert np.max(np.abs(got - want) / want) <= 2e-15
    assert np.all(remainder > 0.0) and np.max(remainder) < 1e-17


@pytest.mark.parametrize("q", [1e-6, 0.25, 0.5, 1.0])
def test_hurwitz_zeta_remainder_bound(q):
    # the Euler-Maclaurin sum with the same N and M, in mpmath: what it
    # leaves out of zeta(3/2, q) is within the reported remainder
    s, n, m = mp.mpf(3) / 2, analytics._EM_SHIFT, analytics._EM_TERMS
    with mp.workdps(50):
        qm = mp.mpf(q)
        w = qm + n
        partial = sum((qm + k) ** -s for k in range(n)) + w ** (1 - s) / (s - 1) + w**-s / 2
        for j in range(1, m + 1):
            partial += mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.rf(s, 2 * j - 1) * w ** (-s - 2 * j + 1)
        left_out = mp.zeta(s, qm) - partial
    _, remainder = analytics._hurwitz_zeta(1.5, np.array([q]))
    assert 0.0 < abs(float(left_out)) <= remainder[0]


# -- L(3/2, chi2) ------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_L_quadratic_vs_hurwitz(p):
    got = L_quadratic(build_context(p))
    assert got.tail_bound < 1e-9
    assert got.value == pytest.approx(hurwitz_L(p), abs=2e-9)


# both classes mod 4; p = 1 mod 4 takes the Gamma(-1/4, x) recurrence
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_L_quadratic_tight_vs_hurwitz(p):
    assert L_quadratic(build_context(p)).value == pytest.approx(hurwitz_L(p), abs=1e-13)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 1009])
def test_L_coarse_error_within_certificate(p):
    got = L_quadratic(build_context(p), tol=1e-5)
    assert got.tail_bound <= 1e-5
    assert abs(got.value - hurwitz_L(p)) <= got.tail_bound


def test_L_quadratic_frozen_p3():
    assert L_quadratic(build_context(3)).value == pytest.approx(0.7039682448687333, abs=2e-9)


def test_L_certificate_consistency():
    ctx = build_context(11)
    coarse = L_quadratic(ctx, tol=1e-5)
    fine = L_quadratic(ctx, tol=1e-10)
    assert coarse.tail_bound < 1e-5
    assert abs(coarse.value - fine.value) <= coarse.tail_bound + fine.tail_bound
    assert coarse.terms < fine.terms


def test_L_dominated_by_zeta():
    for p in (3, 7, 101):
        assert abs(L_quadratic(build_context(p), tol=1e-6).value) <= zeta(1.5)


# -- C_p ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_cp_identity(p):
    rep = compute_Cp(build_context(p))
    assert rep.residual < 1e-8
    assert 0.0 < rep.closed < 2.0 * zeta(1.5)
    assert rep.value == rep.closed


@pytest.mark.parametrize("p", [3, 101, 1052041])
def test_cp_direct_tail_bound(p):
    ctx = build_context(p)
    rep = compute_Cp(ctx)
    assert 0.0 < rep.direct_tail_bound <= 1e-15
    assert constants_report(ctx).cp_direct_tail_bound == rep.direct_tail_bound


def test_cp_frozen_p101():
    # mpmath Hurwitz route gives 1.948152317504349
    assert compute_Cp(build_context(101)).closed == pytest.approx(
        1.948152317504349, abs=5e-11
    )


def test_cp_direct_bracket_p3():
    # literal positive series over n = 2 mod 3, tail < 2/sqrt(N)
    n = 10**6
    ks = np.arange(2, n, 3, dtype=np.float64)
    partial = 2.0 * float(np.sum(ks**-1.5))
    closed = compute_Cp(build_context(3)).closed
    assert partial < closed < partial + 4.0 / math.sqrt(n)


def test_cp_vs_hurwitz():
    for p in (3, 7):
        want = float(mp.zeta(mp.mpf(3) / 2)) * (1 - p**-1.5) - hurwitz_L(p)
        assert compute_Cp(build_context(p)).closed == pytest.approx(want, abs=5e-9)


def test_cp_large_p_vs_hurwitz():
    p = 1052041
    rep = compute_Cp(build_context(p))
    assert rep.residual < 1e-12
    chi = -np.ones(p)
    k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[k * k % p] = 1.0
    a = np.arange(1, p, dtype=np.float64)
    lval = float(np.dot(chi[1:], scipy_hurwitz(1.5, a / p))) * p**-1.5
    want = float(scipy_hurwitz(1.5, 1.0)) * (1.0 - p**-1.5) - lval
    assert rep.closed == pytest.approx(want, abs=1e-13)


def test_cp_lower_ratio_formula():
    ctx = build_context(7)
    cp = compute_Cp(ctx).closed
    assert cp_lower_ratio(ctx, cp) == pytest.approx(cp * 7 ** (1 / (8 * math.sqrt(math.e))), rel=1e-12)


def test_cp_ratio_sweep_small():
    sw = cp_ratio_sweep(2000)
    assert sw.primes_checked == 302
    assert sw.argmin_p == 1559
    assert sw.min_ratio == pytest.approx(0.674376752943, abs=1e-6)
    pairs = dict(sw.below_one)
    assert pairs[191] == pytest.approx(0.97097567, abs=1e-6)
    assert len(sw.below_one) == 18
    assert all(r <= 1.0 for _, r in sw.below_one)
    ps = [p for p, _ in sw.below_one]
    assert ps == sorted(ps)


def test_cp_ratio_sweep_1e5():
    # the measurement behind the documented criterion-5 failure
    sw = cp_ratio_sweep(100_000)
    assert sw.primes_checked == 9591
    assert sw.argmin_p == 95471
    assert sw.min_ratio == pytest.approx(0.5258760849, abs=1e-9)
    assert len(sw.below_one) == 447
    ps = [p for p, _ in sw.below_one]
    assert ps == sorted(ps)


# -- shapiro c ---------------------------------------------------------------


def test_shapiro_c_bracket_p3():
    # literal sum over square-free n = 2 mod 3 with positive tail
    n = 10**6
    mu = arith.mobius_table(n)
    ks = np.arange(2, n, 3, dtype=np.int64)
    ks = ks[mu[ks] != 0].astype(np.float64)
    partial = 2.0 * (2.0 / 3.0) * float(np.sum(ks**-1.5))
    got = shapiro_c(build_context(3))
    assert partial < got < partial + 2.0 * (2.0 / 3.0) * 2.0 / math.sqrt(n)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_shapiro_c_below_cp(p):
    ctx = build_context(p)
    assert 0.0 < shapiro_c(ctx) <= compute_Cp(ctx).closed


def test_shapiro_c_collapse():
    ctx = build_context(7)
    cp = compute_Cp(ctx).closed
    assert shapiro_c(ctx) == pytest.approx(
        cp / (zeta(3.0) * (1 + 1 / 7 + 1 / 49)), rel=1e-10
    )


# -- li ----------------------------------------------------------------------


def test_li_frozen():
    assert li(2) == 0.0
    assert li(10) == pytest.approx(5.12043572466980, abs=1e-8)


def test_li_vs_expi():
    for x in (2.5, 10.0, 1e3, 1e6, 1e8):
        want = expi(math.log(x)) - expi(math.log(2.0))
        assert li(x) == pytest.approx(want, abs=1e-8, rel=1e-12)


def test_li_vs_mpmath_log_grid():
    for x in np.geomspace(2.0, 1e12, 61)[1:]:
        x = float(x)
        want = float(mp.li(x) - mp.li(2))
        assert li(x) == pytest.approx(want, rel=1e-13, abs=0)


def test_li_prime_count_crosscheck():
    assert li(10**6) == pytest.approx(78498, rel=3e-3)


def test_li_ratio_trend():
    ratios = [li(10**k) / (10**k / math.log(10**k)) for k in range(2, 9)]
    assert all(r > 1 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)


def test_li_domain():
    with pytest.raises(ValueError):
        li(1.5)


# -- main terms --------------------------------------------------------------


def test_squarefull_pr_breakdown_shape():
    b = squarefull_pr_main_term(build_context(7), 108)
    assert b.exact == 1
    assert b.prefactor == pytest.approx(2 / 6)
    assert b.predicted == pytest.approx(b.prefactor * (b.leading_term + b.secondary_term))
    assert b.relative_error == pytest.approx((b.exact - b.predicted) / b.predicted)
    assert b.secondary_term == 0.0


def test_squarefull_pr_error_shrinks():
    ctx = build_context(101)
    e4 = abs(squarefull_pr_main_term(ctx, 10**4).relative_error)
    e6 = abs(squarefull_pr_main_term(ctx, 10**6).relative_error)
    assert e6 < e4


def test_charsum_main_term_principal():
    b = squarefull_charsum_main_term(build_context(7), 100, "principal")
    assert b.exact == 13
    assert b.secondary_term < 0  # zeta(2/3) < 0
    assert b.predicted == pytest.approx(13.2819073, abs=1e-5)


def test_charsum_main_term_quadratic():
    ctx = build_context(7)
    b = squarefull_charsum_main_term(ctx, 100, "quadratic")
    want = sum_char_squarefull(ctx, quadratic(ctx), 100, route="direct").value
    assert b.exact == round(want.real) == 11
    assert b.secondary_term == 0.0


def test_charsum_main_term_principal_matches_direct():
    ctx = build_context(11)
    b = squarefull_charsum_main_term(ctx, 5000, "principal")
    want = sum_char_squarefull(ctx, principal(ctx), 5000, route="direct").value
    assert b.exact == round(want.real)


def test_prime_powerful_main_term():
    b = prime_powerful_main_term(build_context(7), 10**6)
    assert b.exact == 70
    assert abs(b.relative_error) < 0.1
    assert b.prefactor == pytest.approx(2 / 6)


def test_squarefree_pr_main_term():
    b = squarefree_pr_main_term(build_context(7), 10)
    assert b.exact == 3
    assert b.predicted == pytest.approx(1.7731207, abs=1e-5)
    big = squarefree_pr_main_term(build_context(7), 10**6)
    assert abs(big.relative_error) < 0.01


def test_main_term_dispatch():
    ctx = build_context(7)
    assert main_term_by_target(ctx, 100, "thm1").target == "thm1"
    assert main_term_by_target(ctx, 100, "lemma22", case="quadratic").target == "lemma22"
    assert main_term_by_target(ctx, 100, "prop42").target == "prop42"
    with pytest.raises(ValueError):
        main_term_by_target(ctx, 100, "thm2")
    with pytest.raises(ValueError):
        main_term_by_target(ctx, 100, "lemma22", case="cubic")


# -- constants ---------------------------------------------------------------


def test_corollary_constants():
    c = corollary_constants()
    assert c["least_squarefull_exponent"] == pytest.approx(1.1215646614511416, abs=1e-12)
    assert f"{c['least_squarefull_exponent']:.3f}" == "1.122"
    assert str(c["least_squarefull_exponent"]).startswith("1.121")
    assert c["cp_lower_exponent"] == pytest.approx(0.0758163324640792, abs=1e-12)
    assert c["least_squarefull_exponent"] == pytest.approx(
        2 / 3 + 6 * c["cp_lower_exponent"], rel=1e-12
    )


def test_constants_report_p7():
    rep = constants_report(build_context(7))
    assert isinstance(rep, ConstantsReport)
    assert rep.p == 7
    assert rep.C_p > 0
    assert rep.cp_identity_residual < 1e-8
    assert rep.L_three_halves_quadratic == pytest.approx(hurwitz_L(7), abs=2e-9)
    assert rep.zeta3 == pytest.approx(1.2020569031595943, abs=1e-12)
    assert rep.cp_lower_ratio == pytest.approx(rep.C_p * 7**0.0758163324640792, rel=1e-9)
    assert rep.shapiro_c <= rep.C_p

"""Analytic constants and main terms, with certified truncations.

zeta(s) is a table of the four arguments the constants use (2/3, 3/2, 2,
3), correctly rounded; any other argument raises ValueError.

The leading constant

    C_p = 2 sum over quadratic non-residues n of n^{-3/2}

is evaluated by two independent routes that must agree.

- Closed: C_p = zeta(3/2)(1 - p^{-3/2}) - L(3/2, chi2), with L from the
  theta-function form of the functional equation (root number 1,
  delta = [p = 3 mod 4]):

      L(3/2) = sum chi2(n) n^{-3/2} Q(a1, pi n^2/p)
             + (pi/p) / Gamma(a1) * sum chi2(n) n^{1/2} Gamma(a2, pi n^2/p),

  a1 = (3/2 + delta)/2, a2 = a1 - 1, Q(a, x) = Gamma(a, x)/Gamma(a) the
  regularized upper incomplete gamma. Terms decay like exp(-pi n^2/p), so
  about 3 sqrt(p) of them reach machine precision. Their symbols chi2(n)
  come from Euler's criterion (arith.legendre_at), so this route needs only
  p, no PrimeContext and no table of length p. The tail certificate
  comes from Gamma(a, x) <= x^{a-1} e^{-x} (1 + max(a-1, 0)/x) for a <= 2:
  the bounds on the terms fall at least geometrically, and tests assert the
  certificate, not just the value. Gamma(a, x) comes from its power series
  below x = 1.5 and from Legendre's continued fraction above (Gautschi,
  ACM TOMS 5, 1979), in numpy.
- Direct: group the non-residues by class mod p,
  C_p = 2 p^{-3/2} sum_{a nonres mod p} zeta(3/2, a/p), a finite sum of
  (p-1)/2 positive Hurwitz zeta values. Each value comes from the
  Euler-Maclaurin formula (Johansson, Numer. Algorithms 69, 2015) with a
  certified remainder, reported as the route's tail bound. The classes come
  from the table of squares (PrimeContext.qr_signs), so the two routes
  share no source of symbols.

Writing n = k^2 m with m square-free (p never divides a non-residue, so
p | k is excluded) gives

    sum_{nonres n} n^{-3/2} = zeta(3)(1 - p^{-3}) sum_{sf nonres m} m^{-3/2},

hence the square-free-non-residue constant 2(1-1/p) sum_{sf nonres} m^{-3/2}
collapses exactly to C_p / (zeta(3)(1 + 1/p + 1/p^2)), the same constant
that multiplies sqrt(x) in the square-full count. A literal truncation of
the square-free sum would need ~10^18 terms for nine digits; the collapse
is exact, so the closed route is used and tests bracket it with coarse
partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .characters import PrimeContext
from .charsums import sum_char_squarefull
from .counting import count_by_target

__all__ = [
    "zeta",
    "SeriesValue",
    "L_quadratic",
    "CpReport",
    "CP_TOLERANCE",
    "compute_Cp",
    "cp_lower_ratio",
    "cp_ratio_sweep",
    "SweepResult",
    "shapiro_c",
    "li",
    "MainTermBreakdown",
    "squarefull_pr_main_term",
    "squarefull_charsum_main_term",
    "prime_powerful_main_term",
    "squarefree_pr_main_term",
    "MAIN_TERMS",
    "CASES",
    "main_term_by_target",
    "corollary_constants",
    "ConstantsReport",
    "constants_report",
]

# Default truncation tolerance for L(3/2, chi2): the tail is then below the
# rounding of the sum, and the cost grows only like sqrt(log(1/tol)).
_L_TOL = 1e-15
# zeta(s) correctly rounded (mpmath at 40 digits, s the float argument)
_ZETA_TABLE = {
    2 / 3: -2.447580736233658, 1.5: 2.612375348685488, 2.0: 1.6449340668482264, 3.0: 1.2020569031595942
}


def zeta(s: float) -> float:
    """Riemann zeta at an argument of _ZETA_TABLE, correctly rounded; any
    other s raises ValueError."""
    try:
        return _ZETA_TABLE[s]
    except KeyError:
        raise ValueError(f"zeta is tabulated only at {tuple(_ZETA_TABLE)}, got {s}") from None


@dataclass(frozen=True)
class SeriesValue:
    value: float
    tail_bound: float
    terms: int


# Gamma(a, x) switches from the power series to the continued fraction at
# x = 1.5: the series loses digits to the cancellation Gamma(a) - gamma(a, x)
# as x grows (Gamma(1/4) is 30 times Gamma(1/4, 1.5)), the fraction
# converges more slowly as x falls, and 48 levels started from the tail's
# fixed point reach the rounding floor at x = 1.5. A switch at x = 1 with
# 72 levels gives 4e-15 at a = 1/4 instead of 1e-14, but made the C_p sweep
# to 1e5 about 25% slower: each level is two numpy calls on short arrays.
_GAMMA_SWITCH = 1.5
_GAMMA_SERIES_TERMS = 32
_GAMMA_CF_DEPTH = 48
# Gamma(a) correctly rounded (mpmath at 40 digits); math.gamma is up to 1.8
# ulp off at these points, which would shift every term of L(3/2, chi2)
_GAMMA_QUARTERS = {0.25: 3.625609908221908, 0.75: 1.2254167024651776, 1.25: 0.906402477055477}


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for a in {1/4, 3/4, 5/4} and x > 0, to about 1e-14
    relative at a = 1/4 and 3e-15 at a = 3/4 and 5/4.

    Below _GAMMA_SWITCH: Gamma(a) minus the lower function
    gamma(a, x) = x^a e^{-x} sum_{k >= 0} x^k / (a (a+1) ... (a+k)), whose
    first 32 terms are one matrix product. From _GAMMA_SWITCH on, Legendre's
    continued fraction

        Gamma(a, x) = x^a e^{-x} / (x+1-a - t_1),
        t_k = k(k-a) / (x+2k+1-a - t_{k+1}),

    evaluated backward from a fixed depth (Gautschi, ACM TOMS 5, 1979). The
    start is the root of t (x+2k-a - t) = k(k-a), the fixed point of the
    recurrence when t_{k+1} = t_k + 1; it leaves about a fortieth of the
    truncation error of a start at t = 0."""
    out = np.empty_like(x)
    low = x < _GAMMA_SWITCH
    xl, xh = x[low], x[~low]
    coef = 1.0 / np.cumprod(a + np.arange(_GAMMA_SERIES_TERMS))
    series = np.vander(xl, _GAMMA_SERIES_TERMS, increasing=True) @ coef
    out[low] = _GAMMA_QUARTERS[a] - xl**a * np.exp(-xl) * series
    k = _GAMMA_CF_DEPTH + 1.0
    frac = (xh + (2.0 * k - a) - np.sqrt((xh - a) ** 2 + 4.0 * k * xh)) / 2.0
    k = np.arange(_GAMMA_CF_DEPTH, 0, -1, dtype=np.float64)
    for num, den in zip((k * (k - a)).tolist(), xh + (2.0 * k + 1.0 - a)[:, None]):
        frac = num / (den - frac)
    out[~low] = xh**a * np.exp(-xh) / (xh + (1.0 - a) - frac)
    return out


def _upper_gamma_bound(a: float, x: np.ndarray) -> np.ndarray:
    """Upper bound on Gamma(a, x) for a <= 2, x > 0."""
    return x ** (a - 1.0) * np.exp(-x) * (1.0 + max(a - 1.0, 0.0) / x)


def L_quadratic(p: int, tol: float = _L_TOL) -> SeriesValue:
    """L(3/2, chi2) by the theta-function functional equation, truncated
    at the first n where the certified tail drops to tol or below; the
    symbols chi2(n) of those n come from arith.legendre_at, so p may be any
    odd prime up to arith.MAX_INT64_MODULUS."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    delta = p % 4 == 3
    a1 = (1.5 + delta) / 2.0
    a2 = a1 - 1.0
    g1 = _GAMMA_QUARTERS[a1]
    dual = math.pi / p / g1  # (p/pi)^{-1} Gamma(a2)/Gamma(a1) Q(a2, x) = dual Gamma(a2, x)
    # At n_max, pi n^2/p is log(1/tol) + 40: far past the first n whose tail
    # bound reaches tol.
    n_max = math.isqrt(math.ceil(p / math.pi * (math.log(1.0 / tol) + 40.0))) + 2
    n = np.arange(1, n_max + 2, dtype=np.float64)
    x = math.pi / p * n * n
    # term_bound[k] bounds the two terms of n = k+1; it is exp(-x) times a
    # non-increasing factor, so past n = N+1 consecutive bounds shrink by at
    # least exp(-pi(2N+3)/p) and the tail after N terms is a geometric series.
    term_bound = (
        n**-1.5 * _upper_gamma_bound(a1, x) / g1 + dual * np.sqrt(n) * _upper_gamma_bound(a2, x)
    )
    tails = term_bound[1:] / -np.expm1(-math.pi * (2.0 * n[:-1] + 3.0) / p)
    fits = np.flatnonzero(tails <= tol)
    if fits.size == 0:
        raise ArithmeticError(f"L(3/2, chi2) tail bound never reached {tol} at p={p}")
    terms = int(fits[0]) + 1
    n, x = n[:terms], x[:terms]
    chi = arith.legendre_at(np.arange(1, terms + 1), p).astype(np.float64)
    # one incomplete gamma gives both: Gamma(a1, x) = a2 Gamma(a2, x) + x^a2 e^{-x},
    # taken upward from a2 = 1/4, or downward to a2 = -1/4 as the reverse step
    power = x**a2 * np.exp(-x)
    if delta:
        gamma2 = _upper_gamma(a2, x)
        gamma1 = a2 * gamma2 + power
    else:
        gamma1 = _upper_gamma(a1, x)
        gamma2 = (gamma1 - power) / a2
    value = float(np.dot(chi, n**-1.5 * (gamma1 / g1)))
    value += dual * float(np.dot(chi, np.sqrt(n) * gamma2))
    return SeriesValue(value, float(tails[terms - 1]), terms)


@dataclass(frozen=True)
class CpReport:
    p: int
    direct: float
    closed: float
    residual: float
    direct_tail_bound: float
    closed_tail_bound: float
    terms_direct: int
    terms_closed: int
    L_three_halves_quadratic: float  # the L value the closed route subtracts


# Euler-Maclaurin for zeta(s, q): _EM_SHIFT terms summed directly, then
# _EM_TERMS Bernoulli corrections at q + _EM_SHIFT >= 9; the next one bounds
# the remainder. _EM_COEFFS holds B_2j / (2j)! for j = 1..10, each a
# correctly rounded division of integers.
_EM_SHIFT = 9
_EM_TERMS = 9
_EM_COEFFS = tuple(
    num / (den * math.factorial(2 * j))
    for j, (num, den) in enumerate(
        ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
         (43867, 798), (-174611, 330)),
        start=1,
    )
)


def _hurwitz_zeta(s: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(s, q) for real s > 0, s != 1, and q > 0, with a bound on each
    remainder.

    zeta(s, q) = sum_{k < N} (q+k)^{-s} + w^{1-s}/(s-1) + w^{-s}/2
                 + sum_{j=1}^{M} B_2j / (2j)! (s)_{2j-1} w^{-s-2j+1} + R,

    w = q + N. For real s > 0 every even derivative of (q+t)^{-s} is
    positive, so R has the sign of the first omitted term and is smaller
    (Johansson, Numer. Algorithms 69, 2015)."""
    # c_j = B_2j/(2j)! (s)_{2j-1}, so that term j is lead/w * c_j u^{j-1}
    coeffs = []
    rising = s
    for j, bernoulli in enumerate(_EM_COEFFS, start=1):
        coeffs.append(bernoulli * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    w = q + _EM_SHIFT
    u = 1.0 / (w * w)
    lead = w**-s
    value = lead * (w / (s - 1.0) + 0.5 + np.polyval(coeffs[_EM_TERMS - 1 :: -1], u) / w)
    remainder = abs(coeffs[_EM_TERMS]) * lead / w * u**_EM_TERMS
    for k in range(_EM_SHIFT - 1, -1, -1):  # ascending magnitude
        value += (q + k) ** -s
    return value, remainder


def _cp_direct(ctx: PrimeContext) -> tuple[float, float, int]:
    """2 p^{-3/2} sum over non-residue classes a of zeta(3/2, a/p): the
    value, the bound on its Euler-Maclaurin remainders, and the number of
    classes."""
    p = ctx.p
    nonres = np.flatnonzero(ctx.qr_signs < 0)
    values, remainders = _hurwitz_zeta(1.5, nonres / p)
    scale = 2.0 * p**-1.5
    return scale * float(np.sum(values)), scale * float(np.sum(remainders)), nonres.size


def _cp_closed(p: int, tol: float = _L_TOL) -> tuple[float, SeriesValue]:
    """zeta(3/2)(1 - p^{-3/2}) - L(3/2, chi2), and the L value."""
    lval = L_quadratic(p, tol)
    return zeta(1.5) * (1.0 - p**-1.5) - lval.value, lval


# the default agreement tolerance of the two C_p routes, beyond their certificates
CP_TOLERANCE = 1e-8


def compute_Cp(ctx: PrimeContext, tol: float = CP_TOLERANCE) -> CpReport:
    """Both routes to C_p; raises if they disagree beyond their combined
    certificates plus tol, which must be positive and finite (an infinite
    one would switch the comparison off)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    direct, direct_bound, n_direct = _cp_direct(ctx)
    closed, lval = _cp_closed(ctx.p, min(tol, _L_TOL))
    residual = abs(direct - closed)
    if residual > tol + lval.tail_bound + direct_bound:
        raise ArithmeticError(f"C_p routes disagree by {residual} at p={ctx.p}")
    return CpReport(
        ctx.p, direct, closed, residual, direct_bound, lval.tail_bound, n_direct, lval.terms, lval.value
    )


CP_LOWER_EXPONENT = 1.0 / (8.0 * math.sqrt(math.e))


def cp_lower_ratio(p: int, cp: float) -> float:
    """C_p / p^{-1/(8 sqrt e)} for C_p = cp, the lower-bound margin with
    implied constant 1."""
    return cp * p**CP_LOWER_EXPONENT


@dataclass(frozen=True)
class SweepResult:
    limit: int
    primes_checked: int
    min_ratio: float
    argmin_p: int
    below_one: tuple[tuple[int, float], ...]  # every (p, ratio) with ratio <= 1


def cp_ratio_sweep(limit: int) -> SweepResult:
    """cp_lower_ratio over all odd primes <= limit, each from the closed
    route at full precision; no prime builds a PrimeContext."""
    if limit < 3:
        raise ValueError("need limit >= 3")
    primes = arith.sieve_primes(limit)[1:].tolist()
    ratios = [cp_lower_ratio(p, _cp_closed(p)[0]) for p in primes]
    k = int(np.argmin(ratios))
    below = tuple((p, r) for p, r in zip(primes, ratios) if r <= 1.0)
    return SweepResult(limit, len(primes), ratios[k], primes[k], below)


def _squarefull_denominator(p: int) -> float:  # shapiro_c and the square-full main terms divide by it
    return zeta(3.0) * (1.0 + 1.0 / p + 1.0 / p**2)


def shapiro_c(ctx: PrimeContext, cp: float) -> float:
    """2(1-1/p) sum over square-free non-residues of n^{-3/2}, via the
    exact collapse of C_p = cp to cp / (zeta(3)(1+1/p+1/p^2))."""
    return cp / _squarefull_denominator(ctx.p)


# li(2), the offset between li and the logarithmic integral from 2
_LI_2 = 1.0451637801174928
_EULER_GAMMA = 0.5772156649015329


def li(x: float) -> float:
    """Logarithmic integral from 2, li(x) - li(2), by Ramanujan's series

        li(x) = gamma + ln ln x + sqrt(x) sum_{n >= 1} (-1)^(n-1) (ln x)^n
                / (n! 2^(n-1)) * sum_{0 <= k <= (n-1)/2} 1 / (2k + 1)

    (Berndt, Ramanujan's Notebooks IV, p. 130). The terms peak near
    n = ln(x)/2 at a few times the sum, so the error stays near 1e-14
    relative, or 1e-15 absolute close to x = 2."""
    if x < 2:
        raise ValueError("need x >= 2")
    if x == 2:
        return 0.0
    log_x = math.log(x)
    total = term = inner = 0.0
    n = 0
    while True:
        n += 1
        term = log_x if n == 1 else -term * log_x / (2 * n)
        if n % 2:
            inner += 1.0 / n
        total += term * inner
        if n > log_x and abs(term * inner) < 1e-17 * abs(total):
            break
    return _EULER_GAMMA + math.log(log_x) + math.sqrt(x) * total - _LI_2


# -- main terms --------------------------------------------------------------


@dataclass(frozen=True)
class MainTermBreakdown:
    """An exact count against prefactor * (leading + secondary), with the
    residual scaled by the error envelope; NaN where a divisor is 0."""

    p: int
    x: int
    target: str
    leading_term: float
    secondary_term: float
    prefactor: float
    exact: int
    envelope: float

    @property
    def predicted(self) -> float:
        return self.prefactor * (self.leading_term + self.secondary_term)

    @property
    def residual(self) -> float:
        return self.exact - self.predicted

    @property
    def relative_error(self) -> float:
        return self.residual / self.predicted if self.predicted != 0 else math.nan

    @property
    def residual_scaled(self) -> float:
        return self.residual / self.envelope if self.envelope != 0 else math.nan


def _pr_density(ctx: PrimeContext) -> float:
    return arith.euler_phi(ctx.p - 1) / (ctx.p - 1)


def squarefull_pr_main_term(ctx: PrimeContext, x: int) -> MainTermBreakdown:
    """Predicted vs exact count of square-full primitive roots <= x.

    Error envelope (implied constant 1):
    x^{1/3} log x p^{1/9} (log p)^{1/6} 2^{omega(p-1)}.
    """
    p = ctx.p
    leading = _cp_closed(p)[0] * math.sqrt(x) / _squarefull_denominator(p)
    exact = count_by_target(ctx, x, "squarefull", method="brute").brute_count
    env = (
        x ** (1.0 / 3.0)
        * math.log(x)
        * p ** (1.0 / 9.0)
        * math.log(p) ** (1.0 / 6.0)
        * 2.0 ** len(ctx.p1_primes)
    )
    return MainTermBreakdown(p, x, "thm1", leading, 0.0, _pr_density(ctx), exact, env)


def squarefull_charsum_main_term(ctx: PrimeContext, x: int, case: str) -> MainTermBreakdown:
    """Predicted vs exact square-full character sum, principal or
    quadratic character.

    Envelopes: principal x^{1/6+0.01}; quadratic
    x^{1/4} (log x)^{1/2} p^{3/32}.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    p = ctx.p
    denom = _squarefull_denominator(p)
    if case == "quadratic":
        leading = L_quadratic(p).value / denom * math.sqrt(x)
        secondary = 0.0
        j = (p - 1) // 2
        env = x**0.25 * math.sqrt(math.log(x)) * p ** (3.0 / 32.0)
    else:
        leading = zeta(1.5) * (1.0 - p**-1.5) / denom * math.sqrt(x)
        secondary = (
            zeta(2.0 / 3.0) / zeta(2.0) * (1.0 - p ** (-2.0 / 3.0)) / (1.0 + 1.0 / p) * x ** (1.0 / 3.0)
        )
        j = 0
        env = x ** (1.0 / 6.0 + 0.01)
    raw = sum_char_squarefull(ctx, [j], x, route="direct").value[0]
    exact = round(raw.real)
    if abs(raw.real - exact) > 1e-6 or abs(raw.imag) > 1e-9:
        raise ArithmeticError(f"non-integral character sum {raw}")
    return MainTermBreakdown(p, x, "lemma22", leading, secondary, 1.0, exact, env)


def prime_powerful_main_term(ctx: PrimeContext, x: int) -> MainTermBreakdown:
    """Predicted vs exact count of primitive roots of the shape q^2 r^3.

    Leading term 2 sum over prime non-residues r <= x^{1/3} of
    li(sqrt(x)/r^{3/2}); arguments below 2 contribute 0. Envelope
    2^{omega(p-1)} x^{1/3} log^2(px).
    """
    if x < 8:
        raise ValueError("need x >= 8")
    rs = arith.sieve_primes(arith.icbrt(x))
    rx = math.sqrt(x)
    leading = 0.0
    for r in rs[arith.legendre_at(rs, ctx.p) < 0].tolist():  # ascending r fixes the sum's rounding
        arg = rx / r**1.5
        if arg >= 2.0:
            leading += li(arg)
    leading *= 2.0
    exact = count_by_target(ctx, x, "S", method="brute").brute_count
    env = 2.0 ** len(ctx.p1_primes) * x ** (1.0 / 3.0) * math.log(ctx.p * x) ** 2
    return MainTermBreakdown(ctx.p, x, "thm31", leading, 0.0, _pr_density(ctx), exact, env)


def squarefree_pr_main_term(ctx: PrimeContext, x: int) -> MainTermBreakdown:
    """Predicted vs exact count of square-free primitive roots <= x.

    Predicted = p phi(p-1)/(p^2-1) * (6/pi^2) * x; envelope sqrt(x).
    """
    p = ctx.p
    leading = p * arith.euler_phi(p - 1) / (p**2 - 1) * (6.0 / math.pi**2) * x
    exact = count_by_target(ctx, x, "squarefree", method="brute").brute_count
    return MainTermBreakdown(p, x, "prop42", leading, 0.0, 1.0, exact, math.sqrt(x))


# target -> its main term, in the CLI's order; only lemma22 takes a character case
MAIN_TERMS = {
    "thm1": squarefull_pr_main_term,
    "lemma22": squarefull_charsum_main_term,
    "thm31": prime_powerful_main_term,
    "prop42": squarefree_pr_main_term,
}
CASES = ("principal", "quadratic")  # the characters of lemma22, in the CLI's order


def main_term_by_target(
    ctx: PrimeContext, x: int, target: str, case: str = CASES[0]
) -> MainTermBreakdown:
    if target not in MAIN_TERMS:
        raise ValueError(f"unknown target {target!r}")
    ctx.logs_to(x)  # every target counts through discrete logs
    fn = MAIN_TERMS[target]
    return fn(ctx, x, case) if target == "lemma22" else fn(ctx, x)


# -- constants reports -------------------------------------------------------


def corollary_constants() -> dict[str, float]:
    """The two exponents that govern the least square-full primitive
    root bound."""
    return {
        "least_squarefull_exponent": 2.0 / 3.0 + 3.0 / (4.0 * math.sqrt(math.e)),
        "cp_lower_exponent": CP_LOWER_EXPONENT,
    }


@dataclass(frozen=True)
class ConstantsReport:
    p: int
    C_p: float
    shapiro_c: float
    L_three_halves_quadratic: float
    zeta3: float
    zeta_two_thirds: float
    cp_lower_ratio: float
    cp_identity_residual: float
    cp_direct_tail_bound: float
    l_tail_bound: float


def constants_report(ctx: PrimeContext, tol: float = CP_TOLERANCE) -> ConstantsReport:
    rep = compute_Cp(ctx, tol)
    return ConstantsReport(
        p=ctx.p,
        C_p=rep.closed,
        shapiro_c=shapiro_c(ctx, rep.closed),
        L_three_halves_quadratic=rep.L_three_halves_quadratic,
        zeta3=zeta(3.0),
        zeta_two_thirds=zeta(2.0 / 3.0),
        cp_lower_ratio=cp_lower_ratio(ctx.p, rep.closed),
        cp_identity_residual=rep.residual,
        cp_direct_tail_bound=rep.direct_tail_bound,
        l_tail_bound=rep.closed_tail_bound,
    )

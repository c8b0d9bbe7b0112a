"""Analytic constants and main terms, with certified truncations.

zeta(s) comes from the alternating series accelerated by van Wijngaarden
averaging, which converges for every s > 0 and passes through s = 2/3
without special handling.

The leading constant

    C_p = 2 sum over quadratic non-residues n of n^{-3/2}

is evaluated by two independent routes that must agree.

- Closed: C_p = zeta(3/2)(1 - p^{-3/2}) - L(3/2, chi2), with L from the
  theta-function form of the functional equation (root number 1,
  delta = [p = 3 mod 4]):

      L(3/2) = sum chi2(n) n^{-3/2} Q(a1, pi n^2/p)
             + (pi/p) / Gamma(a1) * sum chi2(n) n^{1/2} Gamma(a2, pi n^2/p),

  a1 = (3/2 + delta)/2, a2 = (delta - 1/2)/2, Q the regularized upper
  incomplete gamma. Terms decay like exp(-pi n^2/p), so about 3 sqrt(p)
  of them reach machine precision. The tail certificate comes from
  Gamma(a, x) <= x^{a-1} e^{-x} (1 + max(a-1, 0)/x) for a <= 2: the
  bounds on the terms fall at least geometrically, and tests assert the
  certificate, not just the value.
- Direct: group the non-residues by class mod p,
  C_p = 2 p^{-3/2} sum_{a nonres mod p} zeta(3/2, a/p), a finite sum of
  (p-1)/2 positive Hurwitz zeta values with no truncation.

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
from functools import lru_cache

import numpy as np

# scipy is imported inside the functions that use it: it takes about 0.5 s
# to import, and every sfpr command loads this module.

from . import arith
from .characters import PrimeContext, quadratic
from .charsums import sum_char_squarefull
from .counting import count_by_target

__all__ = [
    "zeta",
    "SeriesValue",
    "L_quadratic",
    "CpReport",
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
    "main_term_by_target",
    "corollary_constants",
    "ConstantsReport",
    "constants_report",
]

_ETA_TERMS = 64
# Default truncation tolerance for L(3/2, chi2): the tail is then below the
# rounding of the sum, and the cost grows only like sqrt(log(1/tol)).
_L_TOL = 1e-15


@lru_cache(maxsize=256)
def zeta(s: float) -> float:
    """Riemann zeta for s > 0, s != 1, to ~1e-13 absolute."""
    if s == 1:
        raise ValueError("pole at s = 1")
    if s <= 0:
        raise ValueError("need s > 0")
    row = []
    total = 0.0
    sign = 1.0
    for k in range(1, _ETA_TERMS + 1):
        total += sign * k**-s
        row.append(total)
        sign = -sign
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
    return row[0] / (1.0 - 2.0 ** (1.0 - s))


@dataclass(frozen=True)
class SeriesValue:
    value: float
    tail_bound: float
    terms: int


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for a > -1; a <= 0 by one step of the recurrence
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a."""
    from scipy import special

    if a > 0:
        return special.gammaincc(a, x) * special.gamma(a)
    return (_upper_gamma(a + 1.0, x) - x**a * np.exp(-x)) / a


def _upper_gamma_bound(a: float, x: np.ndarray) -> np.ndarray:
    """Upper bound on Gamma(a, x) for a <= 2, x > 0."""
    return x ** (a - 1.0) * np.exp(-x) * (1.0 + max(a - 1.0, 0.0) / x)


def L_quadratic(ctx: PrimeContext, tol: float = _L_TOL) -> SeriesValue:
    """L(3/2, chi2) by the theta-function functional equation, truncated
    at the first n where the certified tail drops to tol or below."""
    from scipy import special

    if not tol > 0:
        raise ValueError("tolerance must be positive")
    p = ctx.p
    delta = p % 4 == 3
    a1, a2 = (1.5 + delta) / 2.0, (delta - 0.5) / 2.0
    g1 = math.gamma(a1)
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
    chi = ctx.qr_signs()[np.arange(1, terms + 1) % p].astype(np.float64)
    value = float(np.dot(chi, n**-1.5 * special.gammaincc(a1, x)))
    value += dual * float(np.dot(chi, np.sqrt(n) * _upper_gamma(a2, x)))
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

    @property
    def value(self) -> float:
        return self.closed


def _cp_direct(ctx: PrimeContext) -> tuple[float, int]:
    """2 p^{-3/2} sum over non-residue classes a of zeta(3/2, a/p); every
    term is positive and nothing is truncated."""
    from scipy import special

    p = ctx.p
    nonres = np.flatnonzero(ctx.qr_signs() < 0)
    return 2.0 * p**-1.5 * float(np.sum(special.zeta(1.5, nonres / p))), nonres.size


def _cp_closed(ctx: PrimeContext) -> float:
    return zeta(1.5) * (1.0 - ctx.p**-1.5) - L_quadratic(ctx).value


def compute_Cp(ctx: PrimeContext, tol: float = 1e-8) -> CpReport:
    """Both routes to C_p; raises if they disagree beyond their combined
    certificates plus tol. The direct route truncates nothing, so its
    certificate is 0."""
    direct, n_direct = _cp_direct(ctx)
    lval = L_quadratic(ctx, min(tol, _L_TOL))
    closed = zeta(1.5) * (1.0 - ctx.p**-1.5) - lval.value
    residual = abs(direct - closed)
    if residual > tol + lval.tail_bound:
        raise ArithmeticError(f"C_p routes disagree by {residual} at p={ctx.p}")
    return CpReport(ctx.p, direct, closed, residual, 0.0, lval.tail_bound, n_direct, lval.terms)


CP_LOWER_EXPONENT = 1.0 / (8.0 * math.sqrt(math.e))


def cp_lower_ratio(ctx: PrimeContext, cp: float | None = None) -> float:
    """C_p / p^{-1/(8 sqrt e)}, the lower-bound margin with implied
    constant 1."""
    if cp is None:
        cp = _cp_closed(ctx)
    return cp * ctx.p**CP_LOWER_EXPONENT


@dataclass(frozen=True)
class SweepResult:
    limit: int
    primes_checked: int
    min_ratio: float
    argmin_p: int
    below_one: tuple[tuple[int, float], ...]  # every (p, ratio) with ratio <= 1


def cp_ratio_sweep(limit: int, progress=None) -> SweepResult:
    """cp_lower_ratio over all odd primes <= limit, each from the closed
    route at full precision."""
    from .characters import build_context

    primes = [int(q) for q in arith.sieve_primes(limit)[1:]]
    ratios = []
    for i, p in enumerate(primes):
        ratios.append(cp_lower_ratio(build_context(p)))
        if progress and (i + 1) % 1024 == 0:
            progress(i + 1, len(primes))
    k = int(np.argmin(ratios))
    below = tuple((p, r) for p, r in zip(primes, ratios) if r <= 1.0)
    return SweepResult(limit, len(primes), ratios[k], primes[k], below)


def shapiro_c(ctx: PrimeContext, cp: float | None = None) -> float:
    """2(1-1/p) sum over square-free non-residues of n^{-3/2}, via the
    exact collapse to C_p / (zeta(3)(1+1/p+1/p^2))."""
    p = ctx.p
    if cp is None:
        cp = _cp_closed(ctx)
    return cp / (zeta(3.0) * (1.0 + 1.0 / p + 1.0 / p**2))


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
    p: int
    x: int
    target: str
    leading_term: float
    secondary_term: float
    prefactor: float
    predicted: float
    exact: int
    relative_error: float
    residual: float
    residual_scaled: float


def _breakdown(ctx, x, target, leading, secondary, prefactor, exact, envelope):
    predicted = prefactor * (leading + secondary)
    residual = exact - predicted
    rel = residual / predicted if predicted != 0 else math.nan
    return MainTermBreakdown(
        p=ctx.p,
        x=x,
        target=target,
        leading_term=leading,
        secondary_term=secondary,
        prefactor=prefactor,
        predicted=predicted,
        exact=exact,
        relative_error=rel,
        residual=residual,
        residual_scaled=residual / envelope,
    )


def _pr_density(ctx: PrimeContext) -> float:
    return arith.euler_phi(ctx.p - 1) / (ctx.p - 1)


def squarefull_pr_main_term(ctx: PrimeContext, x: int) -> MainTermBreakdown:
    """Predicted vs exact count of square-full primitive roots <= x.

    Error envelope (implied constant 1):
    x^{1/3} log x p^{1/9} (log p)^{1/6} 2^{omega(p-1)}.
    """
    if x < 1:
        raise ValueError("need x >= 1")
    p = ctx.p
    leading = _cp_closed(ctx) * math.sqrt(x) / (zeta(3.0) * (1.0 + 1.0 / p + 1.0 / p**2))
    exact = count_by_target(ctx, x, "squarefull", method="brute").brute_count
    env = (
        x ** (1.0 / 3.0)
        * math.log(x)
        * p ** (1.0 / 9.0)
        * math.log(p) ** (1.0 / 6.0)
        * 2.0 ** len(ctx.p1_primes)
    )
    return _breakdown(ctx, x, "thm1", leading, 0.0, _pr_density(ctx), exact, env)


def squarefull_charsum_main_term(
    ctx: PrimeContext, x: int, case: str = "principal"
) -> MainTermBreakdown:
    """Predicted vs exact square-full character sum, principal or
    quadratic character.

    Envelopes: principal x^{1/6+0.01}; quadratic
    x^{1/4} (log x)^{1/2} p^{3/32}.
    """
    if x < 1:
        raise ValueError("need x >= 1")
    p = ctx.p
    denom = zeta(3.0) * (1.0 + 1.0 / p + 1.0 / p**2)
    if case == "principal":
        from .characters import principal

        leading = zeta(1.5) * (1.0 - p**-1.5) / denom * math.sqrt(x)
        secondary = (
            zeta(2.0 / 3.0) / zeta(2.0) * (1.0 - p ** (-2.0 / 3.0)) / (1.0 + 1.0 / p) * x ** (1.0 / 3.0)
        )
        chi = principal(ctx)
        env = x ** (1.0 / 6.0 + 0.01)
    elif case == "quadratic":
        leading = L_quadratic(ctx).value / denom * math.sqrt(x)
        secondary = 0.0
        chi = quadratic(ctx)
        env = x**0.25 * math.sqrt(math.log(x)) * p ** (3.0 / 32.0)
    else:
        raise ValueError(f"unknown case {case!r}")
    raw = sum_char_squarefull(ctx, chi, x, route="direct").value
    exact = round(raw.real)
    if abs(raw.real - exact) > 1e-6 or abs(raw.imag) > 1e-9:
        raise ArithmeticError(f"non-integral character sum {raw}")
    return _breakdown(ctx, x, "lemma22", leading, secondary, 1.0, exact, env)


def prime_powerful_main_term(ctx: PrimeContext, x: int) -> MainTermBreakdown:
    """Predicted vs exact count of primitive roots of the shape q^2 r^3.

    Leading term 2 sum over prime non-residues r <= x^{1/3} of
    li(sqrt(x)/r^{3/2}); arguments below 2 contribute 0. Envelope
    2^{omega(p-1)} x^{1/3} log^2(px).
    """
    if x < 8:
        raise ValueError("need x >= 8")
    signs = ctx.qr_signs()
    leading = 0.0
    rx = math.sqrt(x)
    for r in arith.sieve_primes(arith.icbrt(x)):
        r = int(r)
        if signs[r % ctx.p] >= 0:
            continue
        arg = rx / r**1.5
        if arg >= 2.0:
            leading += li(arg)
    leading *= 2.0
    exact = count_by_target(ctx, x, "S", method="brute").brute_count
    env = 2.0 ** len(ctx.p1_primes) * x ** (1.0 / 3.0) * math.log(ctx.p * x) ** 2
    return _breakdown(ctx, x, "thm31", leading, 0.0, _pr_density(ctx), exact, env)


def squarefree_pr_main_term(ctx: PrimeContext, x: int) -> MainTermBreakdown:
    """Predicted vs exact count of square-free primitive roots <= x.

    Predicted = p phi(p-1)/(p^2-1) * (6/pi^2) * x; envelope sqrt(x).
    """
    if x < 1:
        raise ValueError("need x >= 1")
    p = ctx.p
    leading = p * arith.euler_phi(p - 1) / (p**2 - 1) * (6.0 / math.pi**2) * x
    exact = count_by_target(ctx, x, "squarefree", method="brute").brute_count
    return _breakdown(ctx, x, "prop42", leading, 0.0, 1.0, exact, math.sqrt(x))


_MAIN_TERMS = {
    "thm1": squarefull_pr_main_term,
    "thm31": prime_powerful_main_term,
    "prop42": squarefree_pr_main_term,
}


def main_term_by_target(
    ctx: PrimeContext, x: int, target: str, case: str = "principal"
) -> MainTermBreakdown:
    if target == "lemma22":
        return squarefull_charsum_main_term(ctx, x, case)
    try:
        fn = _MAIN_TERMS[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r}") from None
    return fn(ctx, x)


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


def constants_report(ctx: PrimeContext, tol: float = 1e-8) -> ConstantsReport:
    rep = compute_Cp(ctx, tol)
    return ConstantsReport(
        p=ctx.p,
        C_p=rep.closed,
        shapiro_c=shapiro_c(ctx, rep.closed),
        # the L value compute_Cp subtracted, recovered up to one rounding
        L_three_halves_quadratic=zeta(1.5) * (1.0 - ctx.p**-1.5) - rep.closed,
        zeta3=zeta(3.0),
        zeta_two_thirds=zeta(2.0 / 3.0),
        cp_lower_ratio=cp_lower_ratio(ctx, rep.closed),
        cp_identity_residual=rep.residual,
        cp_direct_tail_bound=rep.direct_tail_bound,
        l_tail_bound=rep.closed_tail_bound,
    )

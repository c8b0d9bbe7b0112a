"""Executable identity suites behind the verify command.

Each suite returns {"suite", "cases", "failures", "max_residual"} and never
raises on a failed case; callers decide what failure means (the CLI exits 2).
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import arith
from .characters import build_context
from .counting import FAMILIES, count_by_target
from .analytics import (
    CP_TOLERANCE,
    compute_Cp,
    corollary_constants,
    cp_lower_ratio,
    li,
    shapiro_c,
    zeta,
)

__all__ = ["run_identity_suite", "run_character_suite", "run_constants_suite", "SUITES", "run_suite"]

_IDENTITY_PRIMES = tuple(int(p) for p in arith.sieve_primes(199)[1:])
_IDENTITY_XS = (10**2, 10**3, 10**4)


def _max(residuals) -> float:
    """The largest residual, NaN if any is NaN, 0.0 for none."""
    return float(np.max(residuals, initial=0.0))


def _tally(suite: str, checks: list[tuple[bool, float]]) -> dict:
    """A suite's report from its (ok, residual) checks. Each ok is the
    comparison a passing case satisfies, so a NaN residual fails it."""
    return {
        "suite": suite,
        "cases": len(checks),
        "failures": sum(not ok for ok, _ in checks),
        "max_residual": _max([r for _, r in checks]),
    }


def run_identity_suite(seed: int = 20250822, progress=None) -> dict:
    """Charsum-vs-brute counting identity over every odd p < 200 and
    x in {1e2,1e3,1e4} for all three families, plus 100 randomized
    factored-vs-direct cases per family (relative 1e-9)."""
    checks = []
    total = len(_IDENTITY_PRIMES) * len(_IDENTITY_XS) * len(FAMILIES)
    for p in _IDENTITY_PRIMES:
        ctx = build_context(p)
        for x in _IDENTITY_XS:
            for family in FAMILIES:
                rep = count_by_target(ctx, x, family)
                checks.append((rep.residual < 1e-6, rep.residual))
        if progress:
            progress(len(checks), total)
    rng = random.Random(seed)
    route_ps = [int(p) for p in arith.sieve_primes(10**4)[1:]]
    for _ in range(100):
        p = rng.choice(route_ps)
        ctx = build_context(p)
        j = rng.randrange(p - 1)
        x = rng.randrange(1, 10**6 + 1)
        for _, _, fn in FAMILIES.values():
            direct = fn(ctx, [j], x, route="direct").value[0]
            factored = fn(ctx, [j], x, route="factored").value[0]
            rel = abs(factored - direct) / max(1.0, abs(direct))
            checks.append((rel < 1e-9, rel))
    return _tally("identities", checks)


def run_character_suite(progress=None) -> dict:
    """Orthogonality sum_j chi_j(m) = (p-1)[m=1] for every m, over odd
    primes up to 100; residual threshold 1e-9 (p-1)."""
    checks = []
    primes = [int(p) for p in arith.sieve_primes(100)[1:]]
    for i, p in enumerate(primes):
        ctx = build_context(p)
        sums = ctx.values(np.arange(p - 1), np.arange(p)).sum(axis=0)[1:]
        sums[0] -= p - 1  # m = 1
        resid = np.abs(sums)
        checks += zip((resid < 1e-9 * (p - 1)).tolist(), resid.tolist())
        if progress:
            progress(i + 1, len(primes))
    return _tally("characters", checks)


def run_constants_suite(progress=None) -> dict:
    """C_p identity, value bounds, collapse identity, zeta and li
    cross-checks."""
    checks = []
    primes = (3, 5, 7, 11, 101, 1009)
    for i, p in enumerate(primes):
        ctx = build_context(p)
        rep = compute_Cp(ctx)
        c = shapiro_c(ctx, rep.closed)
        # c by its Euler products and the direct route's L: no division shared with shapiro_c
        l_direct = zeta(1.5) * (1 - p**-1.5) - rep.direct
        euler = zeta(1.5) / (zeta(3.0) * (1 + p**-1.5)) - l_direct / (zeta(3.0) * (1 - p**-3.0))
        collapse = abs(c - (1 - 1 / p) * euler)
        checks += [
            (rep.residual < CP_TOLERANCE, rep.residual),
            (0.0 < rep.closed < 2.0 * zeta(1.5), 0.0),
            (collapse < 1e-10, collapse),
            (c <= rep.closed, 0.0),
            (cp_lower_ratio(p, rep.closed) > 0.0, 0.0),
        ]
        if progress:
            progress(i + 1, len(primes))
    z2 = abs(zeta(2.0) - math.pi**2 / 6)
    z3 = abs(zeta(3.0) - 1.2020569031595943)
    exps = corollary_constants()
    li_err = abs(li(10.0) - 5.12043572466980)
    checks += [
        (z2 < 1e-12, z2),
        (z3 < 1e-12, z3),
        (abs(exps["least_squarefull_exponent"] - 1.1215646614511416) < 1e-12, 0.0),
        (abs(exps["cp_lower_exponent"] - 0.0758163324640792) < 1e-12, 0.0),
        (li_err < 1e-8, li_err),
        (li(2.0) == 0.0, 0.0),
    ]
    return _tally("constants", checks)


SUITES = {
    "identities": run_identity_suite,
    "characters": run_character_suite,
    "constants": run_constants_suite,
}


def run_suite(name: str, progress=None) -> dict:
    """One named suite, or the aggregate for "all"."""
    if name in SUITES:
        return SUITES[name](progress=progress)
    if name != "all":
        raise ValueError(f"unknown suite {name!r}")
    parts = [fn(progress=progress) for fn in SUITES.values()]
    return {
        "suite": "all",
        "cases": sum(r["cases"] for r in parts),
        "failures": sum(r["failures"] for r in parts),
        "max_residual": _max([r["max_residual"] for r in parts]),
        "suites": parts,
    }

"""Executable identity suites behind the verify command.

Each suite returns {"suite", "cases", "failures", "max_residual"} and never
raises on a failed case; callers decide what failure means (the CLI exits 2).
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import arith
from .characters import Character, build_context
from .counting import FAMILIES, count_by_target
from .analytics import (
    compute_Cp,
    corollary_constants,
    cp_lower_ratio,
    li,
    shapiro_c,
    zeta,
)

__all__ = ["run_identity_suite", "run_character_suite", "run_constants_suite", "run_suite"]

_IDENTITY_PRIMES = tuple(int(p) for p in arith.sieve_primes(199)[1:])
_IDENTITY_XS = (10**2, 10**3, 10**4)


def run_identity_suite(seed: int = 20250822, progress=None) -> dict:
    """Charsum-vs-brute counting identity over every odd p < 200 and
    x in {1e2,1e3,1e4} for all three families, plus 100 randomized
    factored-vs-direct cases per family (relative 1e-9)."""
    cases = failures = 0
    max_residual = 0.0
    total = len(_IDENTITY_PRIMES) * len(_IDENTITY_XS) * len(FAMILIES)
    for p in _IDENTITY_PRIMES:
        ctx = build_context(p)
        for x in _IDENTITY_XS:
            for family in FAMILIES:
                rep = count_by_target(ctx, x, family)
                cases += 1
                max_residual = max(max_residual, rep.residual)
                if rep.residual >= 1e-6:
                    failures += 1
        if progress:
            progress(cases, total)
    rng = random.Random(seed)
    route_ps = [int(p) for p in arith.sieve_primes(10**4)[1:]]
    for _ in range(100):
        p = rng.choice(route_ps)
        ctx = build_context(p)
        j = rng.randrange(p - 1)
        chi = Character(ctx, j)
        x = rng.randrange(1, 10**6 + 1)
        for _, _, fn in FAMILIES.values():
            direct = fn(ctx, chi, x, route="direct").value
            factored = fn(ctx, chi, x, route="factored").value
            rel = abs(factored - direct) / max(1.0, abs(direct))
            cases += 1
            max_residual = max(max_residual, rel)
            if rel >= 1e-9:
                failures += 1
    return {"suite": "identities", "cases": cases, "failures": failures, "max_residual": max_residual}


def run_character_suite(progress=None) -> dict:
    """Orthogonality sum_j chi_j(m) = (p-1)[m=1] for every m, over odd
    primes up to 100; residual threshold 1e-9 (p-1)."""
    cases = failures = 0
    max_residual = 0.0
    primes = [int(p) for p in arith.sieve_primes(100)[1:]]
    for i, p in enumerate(primes):
        ctx = build_context(p)
        sums = np.stack([ctx.chi_values(j) for j in range(p - 1)]).sum(axis=0)[1:]
        sums[0] -= p - 1  # m = 1
        resid = np.abs(sums)
        cases += p - 1
        max_residual = max(max_residual, float(resid.max()))
        failures += int(np.count_nonzero(resid >= 1e-9 * (p - 1)))
        if progress:
            progress(i + 1, len(primes))
    return {"suite": "characters", "cases": cases, "failures": failures, "max_residual": max_residual}


def run_constants_suite(progress=None) -> dict:
    """C_p identity, value bounds, collapse identity, zeta and li
    cross-checks."""
    cases = failures = 0
    max_residual = 0.0

    def check(ok: bool, resid: float = 0.0):
        nonlocal cases, failures, max_residual
        cases += 1
        max_residual = max(max_residual, resid)
        if not ok:
            failures += 1

    primes = (3, 5, 7, 11, 101, 1009)
    for i, p in enumerate(primes):
        ctx = build_context(p)
        rep = compute_Cp(ctx)
        check(rep.residual < 1e-8, rep.residual)
        check(0.0 < rep.closed < 2.0 * zeta(1.5))
        c = shapiro_c(ctx)
        collapse = abs(c - rep.closed / (zeta(3.0) * (1 + 1 / p + 1 / p**2)))
        check(collapse < 1e-10, collapse)
        check(c <= rep.closed)
        check(cp_lower_ratio(ctx, rep.closed) > 0.0)
        if progress:
            progress(i + 1, len(primes))
    z2 = abs(zeta(2.0) - math.pi**2 / 6)
    check(z2 < 1e-12, z2)
    z3 = abs(zeta(3.0) - 1.2020569031595943)
    check(z3 < 1e-12, z3)
    exps = corollary_constants()
    check(abs(exps["least_squarefull_exponent"] - 1.1215646614511416) < 1e-12)
    check(abs(exps["cp_lower_exponent"] - 0.0758163324640792) < 1e-12)
    li_err = abs(li(10.0) - 5.12043572466980)
    check(li_err < 1e-8, li_err)
    check(li(2.0) == 0.0)
    return {"suite": "constants", "cases": cases, "failures": failures, "max_residual": max_residual}


_SUITES = {
    "identities": run_identity_suite,
    "characters": run_character_suite,
    "constants": run_constants_suite,
}


def run_suite(name: str, progress=None) -> dict:
    """One named suite, or the aggregate for "all"."""
    if name in _SUITES:
        return _SUITES[name](progress=progress)
    if name != "all":
        raise ValueError(f"unknown suite {name!r}")
    parts = [fn(progress=progress) for fn in _SUITES.values()]
    return {
        "suite": "all",
        "cases": sum(r["cases"] for r in parts),
        "failures": sum(r["failures"] for r in parts),
        "max_residual": max(r["max_residual"] for r in parts),
        "suites": parts,
    }

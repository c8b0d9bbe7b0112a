"""Workload inputs and the benchmark's own reference answers.

Nothing here imports sfpr: every check is an independent computation, so a
wrong program answer cannot agree with itself. Run this file directly to
recompute the pinned hypothesis list and compare it with the stored copy:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.special import zeta as hurwitz_zeta

HERE = Path(__file__).resolve().parent
HYPOTHESIS_LIMIT = 1_100_000
PINNED_HYPOTHESIS = HERE / "hypothesis_1100000.json"
COUNT_X = 1_000_000
COUNT_TARGETS = ("squarefull", "S", "squarefree")
# Both windows are narrow so the seed changes the input but barely the work:
# count's tables grow as P^2, the constants series as Q^(1/3).
COUNT_WINDOW = (3960, 4040)
CONSTANTS_WINDOW = (99_000, 101_000)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


def count_candidates() -> list[int]:
    """Primes in the count window whose p-1 is square-free, so every one of
    the p-1 characters enters the decomposition."""
    return [p for p in range(*COUNT_WINDOW) if _is_prime(p) and _squarefree(p - 1)]


def constants_candidates() -> list[int]:
    return [p for p in range(*CONSTANTS_WINDOW) if _is_prime(p)]


def pick_inputs(seed: int) -> dict:
    """P for count and Q for constants; hypothesis and verify are fixed."""
    rng = random.Random(seed)
    return {"count_p": rng.choice(count_candidates()), "constants_q": rng.choice(constants_candidates())}


def primitive_root_mask(p: int) -> np.ndarray:
    """mask[r] is True when r is a primitive root mod p, by the plain
    pow test a^((p-1)/q) != 1 for every prime q | p-1."""
    qs = _prime_factors(p - 1)
    mask = np.zeros(p, dtype=bool)
    for a in range(1, p):
        mask[a] = all(pow(a, (p - 1) // q, p) != 1 for q in qs)
    return mask


def _squarefree_sieve(x: int) -> np.ndarray:
    keep = np.ones(x + 1, dtype=bool)
    keep[0] = False
    for d in range(2, math.isqrt(x) + 1):
        keep[d * d :: d * d] = False
    return keep


def _squarefull_upto(x: int) -> np.ndarray:
    """Every a^2 b^3 <= x, deduplicated; the pairs need not be canonical."""
    vals = set()
    for b in range(1, round(x ** (1 / 3)) + 2):
        cube = b**3
        if cube > x:
            break
        for a in range(1, math.isqrt(x // cube) + 1):
            vals.add(a * a * cube)
    return np.array(sorted(vals), dtype=np.int64)


def _q2r3_upto(x: int) -> np.ndarray:
    ps = [q for q in range(2, math.isqrt(x // 8) + 1) if _is_prime(q)]
    vals = [q * q * r**3 for r in ps if r**3 <= x for q in ps if q * q * r**3 <= x]
    return np.array(vals, dtype=np.int64)


def family_members(target: str, x: int) -> np.ndarray:
    if target == "squarefull":
        return _squarefull_upto(x)
    if target == "S":
        return _q2r3_upto(x)
    if target == "squarefree":
        return np.flatnonzero(_squarefree_sieve(x))
    raise ValueError(f"unknown target {target!r}")


def count_reference(p: int, x: int = COUNT_X) -> dict[str, int]:
    """Exact primitive-root counts per target for `count`."""
    mask = primitive_root_mask(p)
    return {t: int(np.count_nonzero(mask[family_members(t, x) % p])) for t in COUNT_TARGETS}


def quadratic_L_reference(p: int) -> float:
    """L(3/2, chi_2) = p^(-3/2) sum_a (a|p) zeta(3/2, a/p), with the
    Legendre symbol from the squares mod p."""
    signs = -np.ones(p, dtype=np.float64)
    k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    signs[k * k % p] = 1.0
    a = np.arange(1, p, dtype=np.float64)
    return float(np.dot(signs[1:], hurwitz_zeta(1.5, a / p))) * p**-1.5


def cp_reference(p: int) -> tuple[float, float]:
    """(C_p, L(3/2, chi_2)), with C_p = zeta(3/2)(1 - p^(-3/2)) - L."""
    lval = quadratic_L_reference(p)
    return float(hurwitz_zeta(1.5, 1.0)) * (1.0 - p**-1.5) - lval, lval


def pinned_hypothesis() -> list[list[int]]:
    return json.loads(PINNED_HYPOTHESIS.read_text())


def hypothesis_pairs(limit: int = HYPOTHESIS_LIMIT, bound: int = 4_000_000) -> list[list[int]]:
    """[p, g] for every odd prime p <= limit whose least square-full
    primitive root g (> 1) is at least p, by trial over the square-full
    numbers in ascending order."""
    stream = [int(v) for v in _squarefull_upto(bound)[1:]]
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    out = []
    for p in np.flatnonzero(sieve)[1:].tolist():
        qs = _prime_factors(p - 1)
        for m in stream:
            if m % p and all(pow(m, (p - 1) // q, p) != 1 for q in qs):
                break
        else:
            raise ArithmeticError(f"no square-full primitive root below {bound} for p={p}")
        if m >= p:
            out.append([p, m])
    return out


if __name__ == "__main__":
    fresh = hypothesis_pairs()
    same = fresh == pinned_hypothesis()
    print(f"{len(fresh)} exceptional primes, largest {fresh[-1][0]}; pinned copy matches: {same}")
    raise SystemExit(0 if same else 1)

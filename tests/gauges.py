"""Empirical envelope gauges: the maxima of the quadratic character's interval
and prime sums against two analytic envelopes, pinned by criterion 8 and
checked by TestGauges.

The gauges read no discrete logs: they take the Legendre symbols of the
quadratic character as exact integer partial sums, so each maximum is a
deterministic regression pin.
"""

import math

import numpy as np

from sfpr import arith
from sfpr.characters import build_context


def burgess_envelope(p: int, x: int, r: int) -> float:
    return x ** (1 - 1 / r) * p ** ((r + 1) / (4 * r * r)) * math.log(p) ** (1 / (2 * r))


def burgess_gauge_max(
    ps: tuple[int, ...] = (101, 1009, 10007),
    rs: tuple[int, ...] = (2, 3),
    xmax: int = 10**4,
) -> dict:
    """Max of |sum_{m <= x} (m|p)| / burgess_envelope(p, x, r) over x in
    [2, xmax]: a measured gauge, not a theorem (the true inequality carries
    an unspecified constant)."""
    best = {"ratio": -1.0}
    for p in ps:
        ctx = build_context(p)
        signs = ctx.qr_signs
        x = np.arange(1, xmax + 1, dtype=np.int64)
        partial = np.cumsum(signs[x % p].astype(np.int64))
        absS = np.abs(partial[1:]).astype(np.float64)  # x >= 2
        xs = x[1:].astype(np.float64)
        for r in rs:
            ratios = absS / burgess_envelope(p, xs, r)
            k = int(np.argmax(ratios))
            if ratios[k] > best["ratio"]:
                best = {"ratio": float(ratios[k]), "p": p, "r": r, "x": int(x[1:][k])}
    return best


def grh_gauge_max(ps: tuple[int, ...] = (101, 1009, 10007), xmax: int = 10**7) -> dict:
    """Max of |sum_{q <= x, q prime} (q|p)| against the conditional
    sqrt(x) log^2(px) envelope over x <= xmax.

    Between consecutive primes the numerator is constant and the envelope
    grows, so scanning x over primes is exact.
    """
    primes = arith.sieve_primes(xmax)
    best = {"ratio": -1.0}
    for p in ps:
        ctx = build_context(p)
        signs = ctx.qr_signs
        partial = np.cumsum(signs[primes % p].astype(np.int64))
        xs = primes.astype(np.float64)
        ratios = np.abs(partial) / (np.sqrt(xs) * np.log(p * xs) ** 2)
        k = int(np.argmax(ratios))
        if ratios[k] > best["ratio"]:
            best = {"ratio": float(ratios[k]), "p": p, "x": int(primes[k])}
    return best

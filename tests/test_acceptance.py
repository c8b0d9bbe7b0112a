"""End-to-end acceptance gate, one criterion per test.

Each criterion prints a single [criterion N] PASS/FAIL line (visible under
-s, and in the failure message otherwise) before asserting.

Criterion 5 is expected to fail on its second clause: the measured minimum
of C_p * p^{1/(8 sqrt e)} over all primes p <= 1e5 is about 0.526 (at
p = 95471, a prime whose least non-residue is large), so the asserted
empirical bound "ratio > 1 with implied constant 1" is false. The test
reports the measurement and fails honestly rather than weakening the
assertion.

FIRST_RUN holds regression pins from the first oracle run. The verdict
lines of criteria 7 and 8 print the measured values in full (repr), so

    pytest tests/test_acceptance.py -k "criterion_7 or criterion_8" -s

regenerates the block.
"""

import math
import time

import pytest

from sfpr import arith, verify
from sfpr.analytics import (
    compute_Cp,
    corollary_constants,
    main_term_by_target,
    squarefull_charsum_main_term,
    squarefull_pr_main_term,
)
from sfpr.characters import build_context
from sfpr.cli import main as cli_main
from sfpr.counting import (
    hypothesis_scan,
    least_squarefree_pr,
    least_squarefull_pr,
)

from gauges import burgess_gauge_max, grh_gauge_max

FIRST_RUN = {
    "burgess_max": {"ratio": 0.7237429302969588, "p": 1009, "r": 3, "x": 10},
    "grh_max": {"ratio": 0.035369548303509205, "p": 101, "x": 3},
    "lemma22_principal_scaled_max": 0.428826901430858,
}

def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def identity_suite():
    """The verify identity suite: charsum-vs-brute counts of every family
    at every odd p < 200 and x in {1e2, 1e3, 1e4} (a failure is a residual
    of 1e-6 or more), then 100 seeded draws of (p < 1e4, chi, x <= 1e6)
    with factored-vs-direct sums of every family (a failure is a relative
    gap of 1e-9 or more)."""
    t0 = time.time()
    rep = verify.run_identity_suite(seed=987654321)
    return rep, time.time() - t0


def _identity_detail(identity_suite) -> str:
    rep, elapsed = identity_suite
    return (
        f"verify identity suite (counts and sums): {rep['cases']} cases, {rep['failures']} failures, "
        f"max residual {rep['max_residual']:.3e}, {elapsed:.1f}s"
    )


def test_criterion_1_counting_identity(identity_suite):
    _verdict(1, identity_suite[0]["failures"] == 0, "charsum-vs-brute identity, " + _identity_detail(identity_suite))


def test_criterion_2_factored_sums(identity_suite):
    _verdict(2, identity_suite[0]["failures"] == 0, "factored-vs-direct sums, " + _identity_detail(identity_suite))


def _oracle_order(a, p):
    v, k = a % p, 1
    while v != 1:
        v = v * a % p
        k += 1
    return k


def _oracle_squarefull(n):
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


def _oracle_squarefree(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_criterion_3_least_element_table():
    expected = {3: (8, 2), 5: (8, 2), 7: (108, 3)}
    rows = []
    ok = True
    for p, (want_full, want_free) in expected.items():
        m = 1
        while True:
            m += 1
            if _oracle_squarefull(m) and m % p and _oracle_order(m, p) == p - 1:
                oracle_full = m
                break
        m = 1
        while True:
            m += 1
            if _oracle_squarefree(m) and m % p and _oracle_order(m, p) == p - 1:
                oracle_free = m
                break
        ctx = build_context(p)
        got = (least_squarefull_pr(ctx), least_squarefree_pr(ctx))
        rows.append(f"p={p}: {got}")
        ok = ok and got == (want_full, want_free) == (oracle_full, oracle_free)
    _verdict(3, ok, "least elements vs independent order-oracle: " + "; ".join(rows))


def test_criterion_4_hypothesis_scan():
    t0 = time.time()
    pairs = hypothesis_scan(1_100_000, jobs=8)
    largest = pairs[-1][0] if pairs else None
    ok = largest == 1052041
    _verdict(
        4,
        ok,
        f"largest exceptional prime {largest} "
        f"({len(pairs)} exceptional, {time.time() - t0:.1f}s, 8 workers)",
    )


def test_criterion_5_cp_machinery(cp_sweep_1e5):
    t0 = time.time()
    worst = 0.0
    for p in (3, 5, 7, 11, 101, 1009, 1052041):
        rep = compute_Cp(build_context(p))
        worst = max(worst, rep.residual)
    ok_identity = worst < 1e-8
    sweep = cp_sweep_1e5
    ok_bound = sweep.min_ratio > 1.0
    _verdict(
        5,
        ok_identity and ok_bound,
        f"C_p identity max residual {worst:.3e} (ok={ok_identity}); "
        f"lower-bound sweep min ratio {sweep.min_ratio:.6f} at p={sweep.argmin_p} "
        f"with {len(sweep.below_one)} primes below 1 (claim ratio>1 ok={ok_bound}); "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_6_corollary_exponent():
    exp = corollary_constants()["least_squarefull_exponent"]
    ok = str(exp).startswith("1.121") and abs(exp - 1.121) < 1e-3
    _verdict(6, ok, f"2/3 + 3/(4 sqrt e) = {exp:.10f} vs stated 1.121...")


def test_criterion_7_error_profiles():
    t0 = time.time()
    ctx101 = build_context(101)
    grid = (10**4, 10**6, 10**8, 10**10)
    rels = [abs(squarefull_pr_main_term(ctx101, x).relative_error) for x in grid]
    ok_decay = all(a > b for a, b in zip(rels, rels[1:]))
    pin = FIRST_RUN["lemma22_principal_scaled_max"] * (1 + 1e-9)
    scaled = [abs(squarefull_charsum_main_term(ctx101, x, "principal").residual_scaled) for x in grid]
    ok_pin = max(scaled) <= pin
    prop_rels = [
        abs(main_term_by_target(build_context(p), 10**6, "prop42").relative_error)
        for p in (7, 101, 1009)
    ]
    ok_prop = max(prop_rels) < 0.01
    _verdict(
        7,
        ok_decay and ok_pin and ok_prop,
        f"main-term rel errors {[f'{r:.4f}' for r in rels]} decreasing={ok_decay}; "
        f"principal scaled residual max {max(scaled)!r} <= pin {pin:.6f} ({ok_pin}); "
        f"x=1e6 rel errors {[f'{r:.2e}' for r in prop_rels]} < 1% ({ok_prop}); "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_gauge_pins():
    got_b = burgess_gauge_max()
    got_g = grh_gauge_max()
    pin_b = FIRST_RUN["burgess_max"]
    pin_g = FIRST_RUN["grh_max"]
    ok = (
        abs(got_b["ratio"] - pin_b["ratio"]) < 1e-9
        and (got_b["p"], got_b["r"], got_b["x"]) == (pin_b["p"], pin_b["r"], pin_b["x"])
        and abs(got_g["ratio"] - pin_g["ratio"]) < 1e-9
        and (got_g["p"], got_g["x"]) == (pin_g["p"], pin_g["x"])
        and math.isfinite(got_b["ratio"])
        and math.isfinite(got_g["ratio"])
    )
    _verdict(
        8,
        ok,
        f"burgess max {got_b!r}; grh max {got_g!r}; both match pins",
    )


def test_criterion_9_scan_determinism(tmp_path, capsys):
    t0 = time.time()
    one = tmp_path / "jobs1.csv"
    eight = tmp_path / "jobs8.csv"
    assert cli_main(["scan", "--from", "3", "--to", "100000", "--jobs", "1", "--out", str(one)]) == 0
    assert cli_main(["scan", "--from", "3", "--to", "100000", "--jobs", "8", "--out", str(eight)]) == 0
    capsys.readouterr()  # progress lines, stderr only
    b1 = one.read_bytes()
    b8 = eight.read_bytes()
    rows = b1.count(b"\n") - 1
    ok = b1 == b8 and rows == 9591  # primes in [3, 100000]
    _verdict(
        9,
        ok,
        f"scan 3..100000: jobs=1 vs jobs=8 byte-identical={b1 == b8}, "
        f"{rows} rows, {time.time() - t0:.1f}s",
    )

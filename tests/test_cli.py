"""CLI surface: exit codes, schemas, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sfpr
from sfpr import analytics, arith, cli, counting, verify
from sfpr.characters import MAX_LOG_P, MAX_QR_P
from sfpr.cli import _parse_grid, main
from sfpr.counting import FAMILIES, METHODS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **blas):
    """`python -m sfpr argv` in a child that imports the same sfpr package
    as this process, however pytest put it on sys.path."""
    return subprocess.run(
        [sys.executable, "-m", "sfpr", *argv],
        capture_output=True, text=True, timeout=120, env=_child_env(**blas),
    )


def _child_env(**blas):
    """This process's environment with the imported sfpr on PYTHONPATH and
    no BLAS thread setting (importing sfpr.cli here set one), apart from
    the `blas` variables given."""
    src = str(Path(sfpr.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(env, **blas)


# A child's ru_maxrss starts from the high-water RSS of the process that
# spawned it, so the command is spawned from this small launcher rather than
# from pytest; the launcher reaps it with os.wait4, whose rusage is that one
# child's (RUSAGE_CHILDREN would be the maximum over every child reaped).
_LAUNCHER = """
import json, os, subprocess, sys, time
report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
t0 = time.monotonic()
proc = subprocess.Popen([sys.executable, "-m", "sfpr", *argv])
while True:
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    wall = time.monotonic() - t0
    if pid or wall > timeout:
        break
    time.sleep(0.02)
if not pid:
    proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
with open(report, "w") as fh:
    json.dump({"code": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
               "finished": bool(pid)}, fh)
"""


def run_measured(tmp_path, argv, timeout):
    """`python -m sfpr argv` with its wall time and its own peak RSS:
    (exit code, stdout, stderr, wall seconds, peak RSS in MB). A command
    still running after `timeout` seconds is killed and fails the test."""
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(report), str(timeout), *argv],
        capture_output=True, text=True, timeout=timeout + 60, env=_child_env(),
    )
    rep = json.loads(report.read_text())
    if not rep["finished"]:
        pytest.fail(f"sfpr {' '.join(argv)} still running after {timeout} s")
    return rep["code"], proc.stdout, proc.stderr, rep["wall"], rep["rss_mb"]


# -- count -------------------------------------------------------------------


def test_count_basic(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--p", "7", "--x", "108", "--target", "squarefull", "--method", "both"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["brute_count"] == 1
    assert rep["residual"] < 1e-6
    assert rep["p"] == 7 and rep["x"] == 108


def test_count_stdout_deterministic(capsys):
    # two identical runs print the same bytes: no wall-clock fields
    argv = ("count", "--p", "101", "--x", "10000", "--target", "squarefree")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv)[1] == out
    assert not any(k.startswith("elapsed") for k in json.loads(out))


def test_count_bad_modulus(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "4", "--x", "10")
    assert code == 1
    assert "modulus must be an odd prime" in err


def test_count_bad_x(capsys):
    code, _, _ = run_cli(capsys, "count", "--p", "7", "--x", "0")
    assert code == 1


def test_count_tolerance_exceeded(capsys, monkeypatch):
    # a residual far past the default tolerance trips the gate
    count = cli.count_by_target
    monkeypatch.setattr(cli, "count_by_target", lambda *a: dataclasses.replace(count(*a), residual=1.0))
    code, out, err = run_cli(capsys, "count", "--p", "7", "--x", "108")
    assert code == 2
    assert json.loads(out)["brute_count"] == 1
    assert "tolerance" in err


def test_count_half_unit_gate_overrides_tolerance(capsys, monkeypatch):
    # a residual of 1 trips the gate even where --tolerance 1 allows it
    count = cli.count_by_target
    monkeypatch.setattr(cli, "count_by_target", lambda *a: dataclasses.replace(count(*a), residual=1.0))
    code, out, err = run_cli(capsys, "count", "--p", "7", "--x", "108", "--tolerance", "1")
    assert code == 2
    assert json.loads(out)["brute_count"] == 1
    assert "tolerance" in err


@pytest.mark.parametrize("target", list(FAMILIES))
@pytest.mark.parametrize("route, plant", [("_brute_count", 1), ("_charsum_count", -1)])
def test_count_off_by_one_fails_at_large_rad(capsys, monkeypatch, target, route, plant):
    # at p = 1000003, R = p - 1 = 2 * 3 * 166667 and the default bound is
    # 1.000002, so only the half-unit gate sees a count that is one off
    real = getattr(counting, route)

    def planted(*args):
        got = real(*args)
        return got + plant if route == "_brute_count" else (got[0] + plant, got[1])

    monkeypatch.setattr(counting, route, planted)
    code, out, err = run_cli(capsys, "count", "--p", "1000003", "--x", "1000", "--target", target)
    assert code == 2
    assert json.loads(out)["characters_used"] == 1000002
    assert "tolerance" in err


def test_count_nan_residual_fails(capsys, monkeypatch):
    # NaN compares false against any tolerance, and the gate still trips
    count = cli.count_by_target
    monkeypatch.setattr(cli, "count_by_target", lambda *a: dataclasses.replace(count(*a), residual=math.nan))
    code, _, err = run_cli(capsys, "count", "--p", "7", "--x", "108")
    assert code == 2
    assert "tolerance" in err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_count_bad_tolerance(capsys, tolerance):
    # a tolerance that is not finite or is negative is a usage error, not a
    # verification failure, and NaN would otherwise switch the gate off
    code, out, err = run_cli(capsys, "count", "--p", "101", "--x", "1000", "--tolerance", tolerance)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "--tolerance must be finite and non-negative" in err


def _euler_pr_count(p, x, target):
    """Square-full or square-free m <= x, prime to p, that are primitive
    roots mod p, by Euler's criterion at every prime q | p - 1. The members
    are marked in a table of x + 1 entries (a^2 b^3 for every a, b; or no d^2
    dividing m), and the powers run in numpy lanes: p < 2^31, so every
    product fits in int64."""
    member = np.zeros(x + 1, dtype=bool)
    if target == "squarefull":
        for b in range(1, arith.icbrt(x) + 1):
            member[np.arange(1, math.isqrt(x // b**3) + 1) ** 2 * b**3] = True
    else:
        member[1:] = True
        for d in range(2, math.isqrt(x) + 1):
            member[d * d :: d * d] = False
    m = np.flatnonzero(member)
    m = m[m % p != 0]
    is_pr = np.ones(len(m), dtype=bool)
    for q, _ in arith.factorize(p - 1):
        e, base, power = (p - 1) // q, m % p, np.ones(len(m), dtype=np.int64)
        while e:
            if e & 1:
                power = power * base % p
            base = base * base % p
            e >>= 1
        is_pr &= power != 1
    return int(is_pr.sum())


# Moduli with 100 002, 58 254, 263 010 and 419 430 characters of square-free
# order, the last three above 2^20 and read from the same discrete-log table
# as the rest: the charsum count must not grow with the number of characters.
# At 4194301, the largest prime below MAX_LOG_P, the count transforms only
# those R = (p-1)/10 characters, and x = 5e6 puts multiples of p among the
# members.
@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "100003", "--x", "100000"),
        ("--p", "1048573", "--x", "1000000"),
        ("--p", "1052041", "--x", "100", "--method", "charsum"),
        ("--p", "1052041", "--x", "10000", "--target", "squarefree", "--method", "charsum"),
        ("--p", "1052041", "--x", "1000000"),
        ("--p", "4194301", "--x", "5000000", "--target", "squarefree", "--method", "charsum"),
        ("--p", "4194301", "--x", "5000000", "--target", "squarefree"),
    ],
)
def test_count_large_modulus_budget(tmp_path, argv):
    code, out, err, wall, rss_mb = run_measured(tmp_path, ["count", *argv], timeout=60)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["characters_used"] == math.prod(q for q, _ in arith.factorize(rep["p"] - 1))
    if rep["residual"] is not None:
        assert rep["residual"] <= 1e-6 * rep["characters_used"]
    else:
        want = _euler_pr_count(rep["p"], rep["x"], rep["target"])
        assert rep["charsum_value"] == pytest.approx(want, abs=1e-6)
    # the int32 discrete-log table (4 bytes a residue) keeps 4194301 below 240 MB
    bound = 240 if rep["p"] == 4194301 else 256
    assert rss_mb <= bound, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"


def test_count_worst_rad_within_max_log_p_budget(tmp_path):
    # p - 1 = 2 * 2097143 is square-free, so R = p - 1 and the length-R FFT,
    # with a prime factor of 2 million, takes numpy's Bluestein route: the
    # costliest count below MAX_LOG_P must still keep its 1 GB budget
    argv = ["count", "--p", "4194287", "--x", "5000000", "--target", "squarefree", "--method", "charsum"]
    code, out, err, wall, rss_mb = run_measured(tmp_path, argv, timeout=60)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["characters_used"] == 4194286
    assert rep["charsum_value"] == pytest.approx(_euler_pr_count(4194287, 5000000, "squarefree"), abs=1e-6)
    assert rss_mb <= 1024, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"


def _assert_fails_fast(tmp_path, argv, bound=f"MAX_LOG_P = {MAX_LOG_P}"):
    code, out, err, wall, rss_mb = run_measured(tmp_path, argv, timeout=5)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("sfpr: error: ") and bound in err
    # nothing p-length is allocated: the interpreter and numpy take about 31 MB
    assert rss_mb <= 64, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"


def test_count_past_max_log_p_fails_fast(tmp_path):
    # 4194319 is the first prime past MAX_LOG_P = 2^22; least reads no
    # discrete logs and still answers there
    assert MAX_LOG_P == 1 << 22
    for method in ("both", "brute", "charsum"):
        _assert_fails_fast(tmp_path, ["count", "--p", "4194319", "--x", "100", "--method", method])
    # the refusal comes before the walk, which would first allocate a table
    # of x + 1 = 1e9 entries
    _assert_fails_fast(
        tmp_path,
        ["count", "--p", "4194319", "--x", "1000000000", "--target", "squarefree", "--method", "brute"],
    )
    code, out, err, _, _ = run_measured(tmp_path, ["least", "--p", "4194319"], timeout=60)
    assert code == 0, err
    assert out.splitlines()[1].startswith("4194319,")


def test_count_x_past_int64_fails_fast(tmp_path):
    # icbrt(2^63) = 2^21, whose cube overflows int64: x >= 2^63 is refused
    # before any walk, histogram or sieve, for every target and method
    for target in FAMILIES:
        for method in METHODS:
            argv = ["count", "--p", "101", "--x", str(1 << 63), "--target", target, "--method", method]
            _assert_fails_fast(tmp_path, argv, "2^63")
    argv = ["profile", "--p", "101", "--target", "thm1", "--x-grid", "1e19:1e19:10"]
    _assert_fails_fast(tmp_path, argv, "2^63")


@pytest.mark.parametrize("target", ["thm1", "lemma22", "thm31", "prop42"])
def test_profile_past_max_log_p_fails_fast(tmp_path, target):
    # every profile target counts through discrete logs, so the bound is
    # checked before any main term (C_p, L, a p-length table) is computed
    _assert_fails_fast(tmp_path, ["profile", "--p", "4194319", "--target", target])


# Large x, small p: the charsum route reads the family's residue histogram,
# built by periodicity, so neither time nor memory grows with the members.
@pytest.mark.parametrize(
    "target,x", [("squarefree", "1000000000"), ("squarefull", "1000000000000")]
)
def test_count_large_x_charsum_budget(tmp_path, target, x):
    argv = ["count", "--p", "101", "--x", x, "--target", target, "--method", "charsum"]
    code, out, err, wall, rss_mb = run_measured(tmp_path, argv, timeout=60)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["characters_used"] == 10
    assert rep["charsum_value"] == pytest.approx(round(rep["charsum_value"]), abs=1e-6)
    assert rss_mb <= 256, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"


def test_count_large_x_prime_powerful_brute_budget(tmp_path):
    # the q^2 r^3 walk folds its runs over q; it builds no list of the
    # 3.5 million members
    argv = ["count", "--p", "101", "--x", "10000000000000000", "--target", "S", "--method", "brute"]
    code, out, err, wall, rss_mb = run_measured(tmp_path, argv, timeout=60)
    assert code == 0, err
    assert json.loads(out)["brute_count"] == 3512621
    assert rss_mb <= 256, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"


def test_count_out_of_memory_is_clean():
    # the square-free table of x = 1e13 needs 9 TiB, of x = 2e9 2 GB; under a
    # 1 GB address-space cap both fail to allocate, whatever the machine has
    # numpy and sfpr are imported before the cap (sfpr.cli starts numpy with
    # one BLAS thread), so that only the command's own allocation meets it
    code = (
        "import resource, sys\n"
        "from sfpr.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = _child_env()
    for x in ("10000000000000", "2000000000"):
        argv = ["count", "--p", "101", "--x", x, "--target", "squarefree", "--method", "brute"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("sfpr: error: out of memory")
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "target,digest",
    [
        ("squarefull", "7866867c8d86dbcb118816362e2c318fd5f7d2bf4879e386b1b4c2aa609ef666"),
        ("S", "fc42574e3dc16c513b63414526f1e3f577ec2a3a45b9ab3d1f1af34a855f0c1b"),
        ("squarefree", "f19e1c7b07982a68614e70c862319801e88f3fcd35de85ecd8ae445d6f4aab7b"),
    ],
)
def test_count_stdout_pinned_when_p_minus_1_squarefree(capsys, target, digest):
    # sha256 of the stdout from when every one of the p - 1 characters was
    # transformed; 4002 = 2 3 23 29 is square-free, so the fold mod R = 4002
    # is the same transform and must give the same bytes
    argv = ["count", "--p", "4003", "--x", "1000000", "--target", target, "--method", "both"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_stdout_pinned(capsys):
    # sha256 of `verify --suite all`: its hundreds of small counts are where
    # per-call costs show, and a faster route to them must keep these bytes
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "19192f79b000ddb01f747c9d40542f32d46470e41c7ec4a675cbb670888ab782"
    )


def test_count_charsum_only(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "13", "--x", "500", "--method", "charsum")
    assert code == 0
    rep = json.loads(out)
    assert rep["brute_count"] is None and rep["residual"] is None


# -- least and scan ----------------------------------------------------------


def test_least_rows(capsys):
    for p, row in [
        (7, "7,108,3,3,15.428571,2"),
        (3, "3,8,2,2,2.666667,1"),
        (5, "5,8,2,2,1.600000,1"),
    ]:
        code, out, _ = run_cli(capsys, "least", "--p", str(p))
        assert code == 0
        header, line = out.strip().splitlines()
        assert header == "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"
        assert line == row


def test_least_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "least", "--p", "9")
    assert code == 1
    assert "odd prime" in err


def test_scan_stdout_rows(capsys):
    code, out, err = run_cli(capsys, "scan", "--from", "3", "--to", "100", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25  # header + 24 primes
    assert lines[0] == "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"
    assert lines[1] == "3,8,2,2,2.666667,1"
    assert "scan:" in err  # progress on stderr only
    assert "scan:" not in out


def test_scan_jobs_byte_identical(tmp_path, capsys):
    a = tmp_path / "one.csv"
    b = tmp_path / "two.csv"
    assert run_cli(capsys, "scan", "--from", "3", "--to", "3000", "--jobs", "1", "--out", str(a))[0] == 0
    assert run_cli(capsys, "scan", "--from", "3", "--to", "3000", "--jobs", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_window_near_1e9_budget(tmp_path, capsys):
    # only the window is sieved, not [2, 1e9] (about 870 MB); 32 of its 45
    # primes are cross-checked, and a few rows are compared with `least`
    argv = ["scan", "--from", "999999000", "--to", "1000000000", "--jobs", "1"]
    code, out, err, wall, rss_mb = run_measured(tmp_path, argv, timeout=10)
    assert code == 0, err
    assert rss_mb <= 64, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"
    header, *rows = out.splitlines()
    assert header == "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega"
    assert len(rows) == 45
    assert rows[0].startswith("999999001,") and rows[-1].startswith("999999937,")
    for row in (rows[0], rows[22], rows[-1]):
        code, least, _ = run_cli(capsys, "least", "--p", row.split(",")[0])
        assert code == 0
        assert least.splitlines() == [header, row]


def test_scan_unwritable_out(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--from", "3", "--to", "10", "--jobs", "1", "--out", "/nonexistent/dir/x.csv"
    )
    assert code == 1
    assert "cannot write" in err
    assert err.count("\n") == 1  # refused before the scan, which reports progress
    assert "scan:" not in err


def test_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    # the path is opened before the work, but written only once the text is ready
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("an earlier report, longer than the next one\n")
    for out in (old, new):
        code, _, err = run_cli(capsys, "count", "--p", "7", "--x", "0", "--out", str(out))
        assert code == 1 and err.startswith("sfpr: error: need 1 <= x")
    assert old.read_text() == "an earlier report, longer than the next one\n"
    assert not new.exists()
    assert run_cli(capsys, "least", "--p", "5", "--out", str(old))[0] == 0
    assert old.read_text() == "p,g_squarefull,g_squarefree,g_least_pr,ratio,omega\n5,8,2,2,1.600000,1\n"


def test_scan_bad_range(capsys):
    assert run_cli(capsys, "scan", "--from", "2", "--to", "10", "--jobs", "1")[0] == 1


# -- hypothesis --------------------------------------------------------------


def test_hypothesis_small(capsys):
    code, out, _ = run_cli(capsys, "hypothesis", "--limit", "200", "--jobs", "1")
    assert code == 0
    rep = json.loads(out)
    pairs = {p: g for p, g in rep["exceptional"]}
    assert pairs[3] == 8 and pairs[5] == 8 and pairs[7] == 108
    assert rep["largest"] == rep["exceptional"][-1][0]
    assert rep["count"] == len(rep["exceptional"])
    ps = [p for p, _ in rep["exceptional"]]
    assert ps == sorted(ps)


def test_hypothesis_benchmark_command_matches_pin():
    # the benchmark's command in fresh processes, whose --jobs 2 pool forks
    # from the heap that main froze
    pinned_file = Path(__file__).resolve().parent.parent / "perfbench" / "hypothesis_1100000.json"
    pinned = json.loads(pinned_file.read_text())
    one, two = (run_module("hypothesis", "--limit", "1100000", "--jobs", jobs) for jobs in ("1", "2"))
    assert (one.returncode, two.returncode) == (0, 0), one.stderr + two.stderr
    assert one.stdout == two.stdout
    assert json.loads(one.stdout)["exceptional"] == pinned


def test_hypothesis_limit_past_int64_lanes_fails_fast():
    proc = subprocess.run(
        [sys.executable, "-m", "sfpr", "hypothesis", "--limit", "10000000000", "--jobs", "1"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("sfpr: error: ")
    assert str(arith.MAX_INT64_MODULUS) in proc.stderr


def test_scan_to_past_int64_lanes_fails_fast():
    # the range would otherwise be sieved up to --to first
    proc = subprocess.run(
        [sys.executable, "-m", "sfpr", "scan", "--from", "3", "--to", "10000000000", "--jobs", "1"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("sfpr: error: ")
    assert str(arith.MAX_INT64_MODULUS) in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-4"])
@pytest.mark.parametrize(
    "argv", [("scan", "--from", "3", "--to", "100"), ("hypothesis", "--limit", "200")]
)
def test_bad_jobs_rejected(capsys, argv, jobs):
    code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert err == f"sfpr: error: --jobs must be at least 1, got {jobs}\n"


def test_default_jobs_is_usable_cpus():
    # a process pinned to one CPU gets one worker, however many the machine has
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    code = (
        "import argparse, os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from sfpr.cli import _jobs\n"
        "print(_jobs(argparse.Namespace(jobs=None)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


# -- constants ---------------------------------------------------------------


def test_constants_report(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "7")
    assert code == 0
    rep = json.loads(out)
    for key in (
        "p",
        "C_p",
        "shapiro_c",
        "L_three_halves_quadratic",
        "zeta3",
        "zeta_two_thirds",
        "cp_lower_ratio",
        "cp_identity_residual",
    ):
        assert key in rep
    assert rep["C_p"] > 0
    assert rep["cp_identity_residual"] < 1e-8


def test_constants_bad_tolerance(capsys):
    code, _, err = run_cli(capsys, "constants", "--p", "7", "--tolerance", "-1")
    assert code == 1
    assert "tolerance must be positive" in err


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
def test_constants_tolerance_must_be_positive_and_finite(capsys, tolerance):
    # an infinite tolerance would switch off the gate between the C_p routes
    code, out, err = run_cli(capsys, "constants", "--p", "7", "--tolerance", tolerance)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "tolerance must be positive and finite" in err


def test_constants_past_max_qr_p_fails_fast(tmp_path):
    # 16777259 is the first prime past MAX_QR_P = 2^24; the residue table
    # and the direct C_p route would take about 36 bytes per unit of p
    assert MAX_QR_P == 1 << 24
    _assert_fails_fast(tmp_path, ["constants", "--p", "16777259"], f"MAX_QR_P = {MAX_QR_P}")


# -- profile -----------------------------------------------------------------


def test_commands_do_not_import_scipy_integrate():
    # scipy.integrate costs about 0.3 s of import; no command needs it
    code = (
        "import contextlib, io, json, sys\n"
        "from sfpr.cli import main\n"
        "codes = []\n"
        "for argv in (['verify', '--suite', 'all'],\n"
        "             ['profile', '--target', 'thm31', '--p', '101', '--x-grid', '100:1000000:10']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps({'codes': codes, 'integrate': 'scipy.integrate' in sys.modules}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "integrate": False}


def test_commands_do_not_import_scipy():
    # the constants routes, verify and the profile of L(3/2, chi2) run on
    # numpy alone; scipy is a test dependency only
    code = (
        "import contextlib, io, json, sys\n"
        "from sfpr.cli import main\n"
        "runs = []\n"
        "for argv in (['constants', '--p', '100613'], ['verify', '--suite', 'all'],\n"
        "             ['profile', '--target', 'lemma22', '--method', 'quadratic', '--p', '101']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        runs.append([main(argv), 'scipy' in sys.modules])\n"
        "print(json.dumps(runs))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, False], [0, False], [0, False]]


def test_commands_without_pool_do_not_import_multiprocessing():
    # its import costs about 5 ms of every start-up; only a --jobs pool needs it
    code = (
        "import contextlib, io, json, sys\n"
        "from sfpr.cli import main\n"
        "runs = []\n"
        "for argv in (['count', '--p', '101', '--x', '10000'], ['constants', '--p', '101'],\n"
        "             ['verify', '--suite', 'all'], ['least', '--p', '101'],\n"
        "             ['profile', '--target', 'thm31', '--p', '101', '--x-grid', '100:10000:10']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        runs.append([main(argv), 'multiprocessing' in sys.modules])\n"
        "print(json.dumps(runs))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, False]] * 5


def test_main_freezes_the_import_heap():
    # so that no collection, the one at exit included, walks numpy's and
    # sfpr's module objects again; importing sfpr alone leaves gc as it was
    code = (
        "import contextlib, gc, io, json\n"
        "from sfpr.cli import main\n"
        "gc.collect()  # the import's garbage, so that none is freed during main\n"
        "frozen, imported = gc.get_freeze_count(), len(gc.get_objects()) - 1  # less the list\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['least', '--p', '101'])\n"
        "print(json.dumps([code, frozen, imported, gc.get_freeze_count()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    code, frozen, imported, after = json.loads(proc.stdout)
    assert (code, frozen) == (0, 0)
    assert after >= imported > 10_000


@pytest.mark.parametrize(
    "argv, pooled",
    [(["scan", "--from", "3", "--to", "100000", "--jobs", "2"], True), (["least", "--p", "101"], False)],
)
def test_pool_imported_before_the_freeze(argv, pooled):
    # a command that starts the --jobs pool imports multiprocessing before
    # the freeze, so that its modules are frozen too; the others never do
    code = (
        "import contextlib, gc, io, json, sys\n"
        "from sfpr.cli import main\n"
        "seen = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (seen.append('multiprocessing' in sys.modules), freeze())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, seen]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [pooled]]


def test_profile_csv(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--p", "7", "--target", "prop42", "--x-grid", "1e2:1e4:10"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,exact,predicted,relative_error,residual_scaled"
    assert len(lines) == 4
    x, exact, predicted, rel, scaled = lines[1].split(",")
    assert int(x) == 100 and int(exact) >= 0
    float(predicted), float(rel), float(scaled)


def test_profile_lemma22_case(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile", "--p", "7", "--target", "lemma22", "--method", "quadratic",
        "--x-grid", "1e2:1e3:10",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize(
    "argv",
    [("--target", "thm1"), ("--target", "lemma22", "--method", "quadratic")],
)
def test_profile_zero_envelope_at_x_one(capsys, argv):
    # both envelopes have a factor of log x, so residual_scaled is NaN at
    # x = 1, as relative_error is where the prediction is 0
    code, out, err = run_cli(capsys, "profile", "--p", "101", *argv, "--x-grid", "1:100:10")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "10", "100"]
    assert rows[0][4] == "nan"
    assert all(math.isfinite(float(r[4])) for r in rows[1:])


def test_profile_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--p", "7", "--target", "thm99", "--x-grid", "1e2:1e3:10"])
    assert exc.value.code == 1


def test_profile_bad_grid(capsys):
    code, _, err = run_cli(capsys, "profile", "--p", "7", "--target", "prop42", "--x-grid", "10")
    assert code == 1
    assert "x-grid" in err


def test_parse_grid():
    assert _parse_grid("1e2:1e4:10") == [100, 1000, 10000]
    assert _parse_grid("8:64:2") == [8, 16, 32, 64]
    assert _parse_grid("100:110:1.001") == list(range(100, 111))
    with pytest.raises(ValueError):
        _parse_grid("5:1:10")
    for spec in ("1e2:nan:10", "1e2:inf:10", "nan:1e3:10", "inf:inf:10", "1e2:1e3:nan", "1e2:1e3:inf"):
        with pytest.raises(ValueError, match="finite"):
            _parse_grid(spec)


def test_profile_rows_distinct_x(capsys):
    # the 96 steps of 1.001 from 100 to 110 round to 11 integers, one row each
    code, out, _ = run_cli(capsys, "profile", "--p", "7", "--target", "prop42", "--x-grid", "100:110:1.001")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [str(x) for x in range(100, 111)]


def test_parse_grid_refuses_past_the_cap_at_once():
    # 20 723 277 points: making them took 10.9 s before the cap, and profile
    # then ran for hours
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"cap of {cli.MAX_GRID_POINTS}"):
        _parse_grid("1:1e9:1.000001")
    assert time.perf_counter() - t0 < 1.0
    # the cap counts points before rounding: 1000 pass, 1001 do not
    assert len(_parse_grid(f"1:{2.0**999}:2")) == cli.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="1001 points"):
        _parse_grid(f"1:{2.0**1000}:2")


def test_profile_grid_past_the_cap(capsys):
    code, out, err = run_cli(capsys, "profile", "--p", "7", "--target", "prop42", "--x-grid", "1:1e9:1.000001")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"cap of {cli.MAX_GRID_POINTS}" in err


@pytest.mark.parametrize("spec", ["1e2:nan:10", "1e2:inf:10"])
def test_profile_non_finite_grid(capsys, spec):
    # a usage error: unchecked, NaN gives an empty profile and inf an
    # OverflowError, which is an ArithmeticError (a verification failure)
    code, out, err = run_cli(capsys, "profile", "--p", "7", "--target", "prop42", "--x-grid", spec)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "x-grid" in err


# -- verify ------------------------------------------------------------------


def test_verify_characters(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "characters")
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "characters"
    assert rep["cases"] > 0 and rep["failures"] == 0
    assert rep["max_residual"] < 1e-9


def test_verify_constants(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "constants")
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0


def test_verify_constants_progress(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "constants")
    assert code == 0
    assert err.splitlines() == [f"verify[constants]: {i}/6" for i in range(1, 7)]


# One case per suite, planted with a given residual through a stand-in for a
# function of sfpr.verify: (name of the stand-in, make it from the original)


def _planted_count(residual):
    # the charsum-vs-brute count at (p, x, target) = (3, 100, squarefull)
    def make(count):
        def stand_in(ctx, x, target):
            rep = count(ctx, x, target)
            hit = (ctx.p, x, target) == (3, 100, "squarefull")
            return dataclasses.replace(rep, residual=residual) if hit else rep

        return stand_in

    return "count_by_target", make


def _planted_character(error):
    # the orthogonality sum at m = 2 mod 3, through chi_0(2)
    def make(build):
        def stand_in(p):
            ctx = build(p)
            if p == 3:
                values = ctx.values

                def planted(js, ms):
                    v = values(js, ms)
                    v[0, 2] += error
                    return v

                ctx.values = planted
            return ctx

        return stand_in

    return "build_context", make


def _planted_cp(residual):
    # the residual of the two C_p routes at p = 101
    def make(compute):
        def stand_in(ctx):
            rep = compute(ctx)
            return dataclasses.replace(rep, residual=residual) if ctx.p == 101 else rep

        return stand_in

    return "compute_Cp", make


# a finite residual just past each suite's threshold
_PAST_THRESHOLD = {
    "identities": _planted_count(2e-6),
    "characters": _planted_character(4e-9),  # the threshold is 1e-9 (p - 1)
    "constants": _planted_cp(2e-8),
}


@pytest.mark.parametrize(
    "suite, plant",
    [("identities", _planted_count(math.nan)), ("characters", _planted_character(math.nan))],
)
def test_verify_nan_residual_fails(monkeypatch, suite, plant):
    # NaN fails every comparison with a threshold, and max() would drop it
    name, make = plant
    monkeypatch.setattr(verify, name, make(getattr(verify, name)))
    rep = verify.run_suite(suite)
    assert rep["failures"] == 1
    assert math.isnan(rep["max_residual"])


def test_verify_constants_catches_a_wrong_collapse(monkeypatch):
    # shapiro_c divided by zeta(3)(1 + 1/p), without the 1/p^2 term: the
    # collapse case checks it against the Euler products, which do not share
    # that denominator, so each of the six primes fails
    def short(p):
        return analytics.zeta(3.0) * (1.0 + 1.0 / p)

    monkeypatch.setattr(analytics, "_squarefull_denominator", short)
    rep = verify.run_suite("constants")
    assert rep["failures"] == 6
    assert rep["max_residual"] > 1e-10


@pytest.mark.parametrize("suite", sorted(_PAST_THRESHOLD))
def test_verify_planted_failure(capsys, monkeypatch, suite):
    clean = verify.run_suite(suite)
    assert clean["failures"] == 0
    name, make = _PAST_THRESHOLD[suite]
    run = verify.SUITES[suite]

    def planted(progress=None):
        # the stand-in only while its own suite runs
        with monkeypatch.context() as m:
            m.setattr(verify, name, make(getattr(verify, name)))
            return run(progress=progress)

    monkeypatch.setitem(verify.SUITES, suite, planted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 2
    rep = json.loads(out)
    assert rep["failures"] == 1
    (part,) = [r for r in rep["suites"] if r["suite"] == suite]
    assert part["failures"] == 1 and part["cases"] == clean["cases"]


# -- plumbing ----------------------------------------------------------------


def test_module_entrypoint():
    proc = run_module("least", "--p", "5")
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[1] == "5,8,2,2,1.600000,1"


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sfpr.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_usage_error_exit_code():
    proc = run_module("count", "--p", "7")
    assert proc.returncode == 1  # missing --x
    assert "--x" in proc.stderr


def _thread_count(code, **blas):
    """(threads, OPENBLAS_NUM_THREADS) of a child once it has run `code`."""
    report = "import os; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, timeout=60, env=_child_env(**blas),
    )
    assert proc.returncode == 0, proc.stderr
    threads, setting = proc.stdout.split()
    return int(threads), setting


def test_cli_pins_one_blas_thread():
    # numpy's BLAS would start a thread per usable CPU; sfpr's only
    # parallelism is the --jobs pool, so importing the CLI leaves one
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc")
    cpus = len(os.sched_getaffinity(0))
    assert _thread_count("import sfpr.cli") == (1, "1")
    if cpus > 1:
        assert _thread_count("import numpy")[0] > 1
    # a setting the user exported is kept
    assert _thread_count("import sfpr.cli", OPENBLAS_NUM_THREADS="2") == (min(cpus, 2), "2")


def test_count_stdout_independent_of_blas_threads():
    # at p - 1 >= 1e4 a multithreaded BLAS splits the factored sums' dot
    # products by thread, which changes their rounding
    argv = ("count", "--p", "100003", "--x", "1000000", "--target", "squarefree", "--method", "charsum")
    default, one = run_module(*argv), run_module(*argv, OPENBLAS_NUM_THREADS="1")
    assert (default.returncode, one.returncode) == (0, 0), default.stderr + one.stderr
    assert default.stdout == one.stdout

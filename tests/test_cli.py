"""CLI surface: exit codes, schemas, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfpr
from sfpr import arith
from sfpr.characters import MAX_LOG_P
from sfpr.cli import _default_jobs, _parse_grid, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m sfpr argv` in a child that imports the same sfpr package
    as this process, however pytest put it on sys.path."""
    return subprocess.run(
        [sys.executable, "-m", "sfpr", *argv],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )


def _child_env():
    src = str(Path(sfpr.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


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


def test_count_bad_modulus(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "4", "--x", "10")
    assert code == 1
    assert "modulus must be an odd prime" in err


def test_count_bad_x(capsys):
    code, _, _ = run_cli(capsys, "count", "--p", "7", "--x", "0")
    assert code == 1


def test_count_tolerance_exceeded(capsys):
    # negative tolerance forces the residual gate to trip
    code, out, err = run_cli(
        capsys, "count", "--p", "7", "--x", "108", "--tolerance", "-1"
    )
    assert code == 2
    assert json.loads(out)["brute_count"] == 1
    assert "tolerance" in err


def _euler_pr_count(p, x, target):
    """Square-full or square-free m <= x that are primitive roots mod p, by
    Euler's criterion at every prime q | p - 1."""
    qs = arith.factorize(p - 1).primes
    count = 0
    for m in range(2, x + 1):
        exps = [e for _, e in arith.factorize(m).factors]
        if (min(exps) >= 2) if target == "squarefull" else (max(exps) == 1):
            count += all(pow(m, (p - 1) // q, p) != 1 for q in qs)
    return count


# Moduli with 100 002, 58 254 and 263 010 characters of square-free order,
# the last two above 2^20 and read from the same discrete-log table as the
# rest: the charsum count must not grow with the number of characters.
@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "100003", "--x", "100000"),
        ("--p", "1048573", "--x", "1000000"),
        ("--p", "1052041", "--x", "100", "--method", "charsum"),
        ("--p", "1052041", "--x", "10000", "--target", "squarefree", "--method", "charsum"),
        ("--p", "1052041", "--x", "1000000"),
    ],
)
def test_count_large_modulus_budget(tmp_path, argv):
    code, out, err, wall, rss_mb = run_measured(tmp_path, ["count", *argv], timeout=60)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["characters_used"] == math.prod(arith.factorize(rep["p"] - 1).primes)
    if rep["residual"] is not None:
        assert rep["residual"] <= 1e-6 * rep["characters_used"]
    else:
        want = _euler_pr_count(rep["p"], rep["x"], rep["target"])
        assert rep["charsum_value"] == pytest.approx(want, abs=1e-6)
    assert rss_mb <= 256, f"peak RSS {rss_mb:.0f} MB after {wall:.1f} s"


def test_count_past_max_log_p_fails_fast(tmp_path):
    # 4194319 is the first prime past MAX_LOG_P = 2^22; least reads no
    # discrete logs and still answers there
    assert MAX_LOG_P == 1 << 22
    for method in ("both", "brute", "charsum"):
        argv = ["count", "--p", "4194319", "--x", "100", "--method", method]
        code, out, err, wall, rss_mb = run_measured(tmp_path, argv, timeout=5)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert err.startswith("sfpr: error: ") and f"MAX_LOG_P = {MAX_LOG_P}" in err
    code, out, err, _, _ = run_measured(tmp_path, ["least", "--p", "4194319"], timeout=60)
    assert code == 0, err
    assert out.splitlines()[1].startswith("4194319,")


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


def test_count_out_of_memory_is_clean():
    # the square-free table of x = 1e13 needs 9 TiB, of x = 2e9 2 GB; under a
    # 1 GB address-space cap both fail to allocate, whatever the machine has
    # numpy and sfpr are imported before the cap, with one BLAS thread, so
    # that only the command's own allocation meets it
    code = (
        "import resource, sys\n"
        "from sfpr.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(_child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
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


def test_scan_unwritable_out(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--from", "3", "--to", "10", "--jobs", "1", "--out", "/nonexistent/dir/x.csv"
    )
    assert code == 1
    assert "cannot write" in err


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


@pytest.mark.parametrize("jobs", ["0", "-4"])
@pytest.mark.parametrize(
    "argv", [("scan", "--from", "3", "--to", "100"), ("hypothesis", "--limit", "200")]
)
def test_bad_jobs_rejected(capsys, argv, jobs):
    code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert err == f"sfpr: error: --jobs must be at least 1, got {jobs}\n"


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
    with pytest.raises(ValueError):
        _parse_grid("5:1:10")


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


# -- plumbing ----------------------------------------------------------------


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("SFPR_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("SFPR_JOBS", "junk")
    assert _default_jobs() >= 1
    monkeypatch.delenv("SFPR_JOBS")
    assert _default_jobs() >= 1


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

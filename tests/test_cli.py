"""CLI surface: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfpr
from sfpr.cli import _default_jobs, _parse_grid, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m sfpr argv` in a child that imports the same sfpr package
    as this process, however pytest put it on sys.path."""
    src = str(Path(sfpr.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "sfpr", *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


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


def test_usage_error_exit_code():
    proc = run_module("count", "--p", "7")
    assert proc.returncode == 1  # missing --x
    assert "--x" in proc.stderr

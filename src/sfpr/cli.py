"""Command-line toolkit.

Subcommands: count, least, scan, hypothesis, constants, profile, verify.
CSV goes to tabular scans, JSON to single-query reports. Progress lines go
to stderr only; stdout stays pipeline-clean and byte-deterministic for a
fixed invocation regardless of worker count.

Exit codes: 0 success, 1 usage or domain error or out of memory, 2
verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .analytics import constants_report, main_term_by_target
from .characters import build_context
from .counting import (
    CSV_HEADER,
    FAMILIES,
    count_by_target,
    hypothesis_scan,
    scan_range,
    scan_record,
)
from .verify import run_suite

PROG = "sfpr"


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_jobs() -> int:
    env = os.environ.get("SFPR_JOBS")
    if env:
        try:
            n = int(env)
            if n >= 1:
                return n
        except ValueError:
            pass
    return os.cpu_count() or 1


def _jobs(args) -> int:
    if args.jobs is None:
        return _default_jobs()
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _progress(label: str):
    def report(done, total):
        print(f"{label}: {done}/{total}", file=sys.stderr, flush=True)

    return report


def _parse_grid(spec: str) -> list[int]:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise ValueError("x-grid must be lo:hi:decade") from None
    if lo < 1 or hi < lo or step <= 1:
        raise ValueError("x-grid must be lo:hi:decade with lo >= 1 and decade > 1")
    xs = []
    x = lo
    while x <= hi * (1 + 1e-9):
        xs.append(round(x))
        x *= step
    return xs


def cmd_count(args) -> int:
    ctx = build_context(args.p)
    rep = count_by_target(ctx, args.x, args.target, args.method)
    _emit(_json(asdict(rep)), args.out)
    if rep.residual is not None and rep.residual > args.tolerance * max(1, rep.characters_used):
        print(f"{PROG}: residual {rep.residual} exceeds tolerance", file=sys.stderr)
        return 2
    return 0


def cmd_least(args) -> int:
    rec = scan_record(args.p)
    _emit(CSV_HEADER + "\n" + rec.csv_row() + "\n", args.out)
    return 0


def cmd_scan(args) -> int:
    records = scan_range(args.from_, args.to, jobs=_jobs(args), progress=_progress("scan"))
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_hypothesis(args) -> int:
    rep = hypothesis_scan(args.limit, jobs=_jobs(args), progress=_progress("hypothesis"))
    payload = {
        "limit": rep.limit,
        "exceptional": [[p, g] for p, g in rep.exceptional],
        "count": len(rep.exceptional),
        "largest": rep.largest,
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_constants(args) -> int:
    ctx = build_context(args.p)
    rep = constants_report(ctx, tol=args.tolerance)
    _emit(_json(asdict(rep)), args.out)
    return 0


def cmd_profile(args) -> int:
    ctx = build_context(args.p)
    xs = _parse_grid(args.x_grid)
    if args.target == "thm31":
        xs = [x for x in xs if x >= 8]
    lines = ["x,exact,predicted,relative_error,residual_scaled"]
    for i, x in enumerate(xs):
        b = main_term_by_target(ctx, x, args.target, case=args.method)
        lines.append(f"{b.x},{b.exact},{b.predicted!r},{b.relative_error!r},{b.residual_scaled!r}")
        print(f"profile: {i + 1}/{len(xs)}", file=sys.stderr, flush=True)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    rep = run_suite(args.suite, progress=_progress(f"verify[{args.suite}]"))
    _emit(_json(rep), args.out)
    return 0 if rep["failures"] == 0 else 2


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    sp = add("count", cmd_count, help="count primitive roots in a family up to x")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--target", choices=list(FAMILIES), default="squarefull")
    sp.add_argument("--method", choices=["brute", "charsum", "both"], default="both")
    sp.add_argument("--tolerance", type=float, default=1e-6)

    sp = add("least", cmd_least, help="least square-full and square-free primitive roots")
    sp.add_argument("--p", type=int, required=True)

    sp = add("scan", cmd_scan, help="least-element records for every prime in a range")
    sp.add_argument("--from", dest="from_", type=int, required=True)
    sp.add_argument("--to", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None, help="workers (default: all cores)")

    sp = add("hypothesis", cmd_hypothesis, help="primes p with g_squarefull(p) >= p")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None, help="workers (default: all cores)")

    sp = add("constants", cmd_constants, help="analytic constants report for one prime")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tolerance", type=float, default=1e-8)

    sp = add("profile", cmd_profile, help="main-term error profile over an x grid")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--target", choices=["thm1", "lemma22", "thm31", "prop42"], required=True)
    sp.add_argument("--x-grid", dest="x_grid", default="1e2:1e6:10")
    sp.add_argument(
        "--method",
        choices=["principal", "quadratic"],
        default="principal",
        help="character case for the lemma22 target",
    )

    sp = add("verify", cmd_verify, help="run identity suites")
    sp.add_argument(
        "--suite", choices=["identities", "characters", "constants", "all"], default="all"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"{PROG}: verification failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"{PROG}: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

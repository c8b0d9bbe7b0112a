"""Command-line toolkit.

Subcommands: count, least, scan, hypothesis, constants, profile, verify.
CSV goes to tabular scans, JSON to single-query reports. Progress lines go
to stderr only; stdout stays pipeline-clean and byte-deterministic for a
fixed invocation regardless of worker count and core count. Each process
runs numpy's BLAS on one thread, so the --jobs pool is the only parallelism,
and `main` freezes the import heap (gc.freeze) once the arguments are parsed:
no collection walks its ~21 600 objects again, not even at exit (14 of a
count's 19 ms exit), and pool workers fork from it; done in `main` so that
importing sfpr leaves gc as it was. A command that may start the pool imports
multiprocessing before the freeze; the others never import it.

Exit codes: 0 success, 1 usage or domain error or out of memory, 2
verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import stat
import sys
from dataclasses import asdict

# numpy starts one BLAS thread per core when it is first imported, which is in
# the imports below; sfpr's only parallelism is the --jobs pool, so pin first
# (the process's other setting, the frozen import heap, is made by `main`)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .analytics import CASES, CP_TOLERANCE, MAIN_TERMS, constants_report, main_term_by_target
from .characters import build_context
from .counting import FAMILIES, METHODS, count_by_target, hypothesis_scan, least_csv, scan_range
from .verify import SUITES, run_suite

PROG = "sfpr"
MAX_GRID_POINTS = 1000  # of an --x-grid, before rounding; the README's largest has 96


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jobs(args) -> int:
    if args.jobs is None:
        # the CPUs this process may run on, not every CPU of the machine
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


@contextlib.contextmanager
def _output(path: str | None):
    """Where a command writes: stdout, or the file `path`, opened before any
    work so that an unwritable path fails at once. An existing file keeps
    its content until `_emit` replaces it; a file that this call made is
    removed again if the command raises."""
    if path is None or path == "-":
        yield sys.stdout
        return
    made = not os.path.lexists(path)
    try:
        fh = open(path, "a", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None
    with fh:
        try:
            yield fh
        except BaseException:
            if made:
                os.unlink(path)
            raise


def _emit(text: str, out) -> None:
    if out is sys.stdout:
        out.write(text)
        return
    try:
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)  # opened to append, so the text starts at 0; a pipe is written as it is
        out.write(text)
        out.flush()
    except OSError as exc:
        raise ValueError(f"cannot write {out.name}: {exc}") from None


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _progress(label: str):
    def report(done, total):
        print(f"{label}: {done}/{total}", file=sys.stderr, flush=True)

    return report


def _parse_grid(spec: str) -> list[int]:
    """The distinct x = round(lo * decade^k) <= hi, ascending, for at most MAX_GRID_POINTS k."""
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise ValueError("x-grid must be lo:hi:decade") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"x-grid bounds and decade must be finite, got {spec}")
    if lo < 1 or hi < lo or step <= 1:
        raise ValueError("x-grid must be lo:hi:decade with lo >= 1 and decade > 1")
    points = math.floor(math.log(hi / lo) / math.log(step)) + 1
    if points > MAX_GRID_POINTS:
        raise ValueError(f"x-grid {spec} has {points} points, more than the cap of {MAX_GRID_POINTS}")
    xs = set()
    x = lo
    while x <= hi * (1 + 1e-9):
        xs.add(round(x))
        x *= step
    return sorted(xs)


def cmd_count(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be finite and non-negative, got {args.tolerance}")
    ctx = build_context(args.p)
    rep = count_by_target(ctx, args.x, args.target, args.method)
    # the wall-clock fields would make stdout differ between identical runs
    payload = {k: v for k, v in asdict(rep).items() if not k.startswith("elapsed_")}
    _emit(_json(payload), args.out)
    bound = args.tolerance * max(1, rep.characters_used)
    # the scaled bound passes an off-by-one once R >= 1e6, but two integer
    # counts cannot differ by half: a residual of 0.5 fails at any tolerance
    if rep.residual is not None and not (rep.residual <= bound and rep.residual < 0.5):  # NaN fails too
        print(f"{PROG}: residual {rep.residual} exceeds tolerance", file=sys.stderr)
        return 2
    return 0


def cmd_least(args) -> int:
    _emit(least_csv(args.p), args.out)
    return 0


def cmd_scan(args) -> int:
    _emit(scan_range(args.from_, args.to, jobs=_jobs(args), progress=_progress("scan")), args.out)
    return 0


def cmd_hypothesis(args) -> int:
    pairs = hypothesis_scan(args.limit, jobs=_jobs(args), progress=_progress("hypothesis"))
    payload = {
        "limit": args.limit,
        "exceptional": [[p, g] for p, g in pairs],
        "count": len(pairs),
        "largest": pairs[-1][0] if pairs else None,
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_constants(args) -> int:
    ctx = build_context(args.p)
    rep = constants_report(ctx, tol=args.tolerance)
    _emit(_json(asdict(rep)), args.out)
    return 0


def cmd_profile(args) -> int:
    xs = _parse_grid(args.x_grid)
    ctx = build_context(args.p)
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
    sp.add_argument("--method", choices=METHODS, default="both")
    sp.add_argument("--tolerance", type=float, default=1e-6)

    sp = add("least", cmd_least, help="least square-full and square-free primitive roots")
    sp.add_argument("--p", type=int, required=True)

    sp = add("scan", cmd_scan, help="least-element records for every prime in a range")
    sp.add_argument("--from", dest="from_", type=int, required=True)
    sp.add_argument("--to", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None, help="workers (default: usable CPUs)")

    sp = add("hypothesis", cmd_hypothesis, help="primes p with g_squarefull(p) >= p")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None, help="workers (default: usable CPUs)")

    sp = add("constants", cmd_constants, help="analytic constants report for one prime")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tolerance", type=float, default=CP_TOLERANCE)

    sp = add("profile", cmd_profile, help="main-term error profile over an x grid")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--target", choices=list(MAIN_TERMS), required=True)
    sp.add_argument("--x-grid", dest="x_grid", default="1e2:1e6:10")
    sp.add_argument(
        "--method", choices=CASES, default=CASES[0], help="character case for the lemma22 target"
    )

    sp = add("verify", cmd_verify, help="run identity suites")
    sp.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) != 1:  # scan or hypothesis may start the pool
        import multiprocessing  # so that the freeze takes its modules too
    gc.freeze()  # the import heap; see the module docstring
    try:
        with _output(args.out) as args.out:
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

"""The sfpr benchmark: four workloads run through the `sfpr` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`). Workloads, metrics and the layer each metric watches are described
in perfbench/README.md.

--trace 0 measures end to end. A closed loop with one client spawns one fresh
process per command and starts the next only when the previous has ended,
until --seconds would be exceeded (at least one pass). Every process is reaped
with os.wait4, so CPU time and peak RSS include its pool workers. Each output
is checked against a reference computed by reference.py; a mismatch or a
non-zero exit counts as a failed run and no run is dropped.

--trace 1 makes one pass at --jobs 1 with the layer wrappers of tracer.py
installed, one untraced pass for the tracing overhead, and for `hypothesis`
an untraced pass at --jobs 2 for the pool efficiency; --seconds is not used.
It fails with exit code 1 if a wrapper the workload should fire never fires.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
JOBS = 2  # the only parallel workload matches the 2-core box it was tuned on
SETUP_PROBES = 3  # plus one warm-up and one sample per command run
CHILD_TIMEOUT_S = 170.0
COUNT_TOLERANCE = 1e-6  # passed to `sfpr count --tolerance`; the route check uses it too
FLOAT_SLACK = 1e-12  # rounding allowance on top of the program's own certificates

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

FAMILIES = reference.COUNT_TARGETS
SUMS = ("squarefull", "squarefree", "prime_powerful")
SUITES = ("identity", "character", "constants")
PER_LAYER = {
    "arith.least_primitive_root.s": "s",
    "arith.least_primitive_root.calls": "count",
    "arith.factorize.s": "s",
    "arith.factorize.calls": "count",
    "arith.is_primitive_root.calls": "count",
    "arith.sieve_primes.s": "s",
    "characters.build_context.s": "s",
    "characters.build_context.calls": "count",
    "characters.table_bytes": "bytes",
    "characters.chi_tables": "count",
    "squarefull.squarefull_stream.items": "count",
    "squarefull.squarefree_table.s": "s",
    **{f"charsums.sum_char_{f}.{k}": u for f in SUMS for k, u in (("s", "s"), ("calls", "count"), ("terms", "count"))},
    **{f"counting.{route}.{f}.s": "s" for route in ("brute", "charsum") for f in FAMILIES},
    "counting.characters_used": "count",
    "counting.least_squarefull_pr.s": "s",
    "counting.candidates_per_prime": "count",
    "counting.block_imbalance": "ratio",
    "counting.pool_eff": "ratio",
    "analytics.L_quadratic.s": "s",
    "analytics.L_quadratic.terms": "count",
    "analytics.compute_Cp.s": "s",
    "analytics.compute_Cp.terms_direct": "count",
    "analytics.cp_abs_err": "abs",
    **{f"verify.run_{s}_suite.{k}": u for s in SUITES for k, u in (("s", "s"), ("cases", "count"))},
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


# -- workloads ----------------------------------------------------------------


def _hypothesis_commands(inputs, jobs):
    return [["hypothesis", "--limit", str(reference.HYPOTHESIS_LIMIT), "--jobs", str(jobs)]]


def _count_commands(inputs, jobs):
    p = str(inputs["count_p"])
    return [
        ["count", "--p", p, "--x", str(reference.COUNT_X), "--target", t, "--method", "both",
         "--tolerance", str(COUNT_TOLERANCE)]
        for t in FAMILIES
    ]


def _constants_commands(inputs, jobs):
    return [["constants", "--p", str(inputs["constants_q"])]]


def _verify_commands(inputs, jobs):
    return [["verify", "--suite", "all"]]


def _check_hypothesis(argv, out, refs):
    rep = json.loads(out)
    pairs = refs["hypothesis"]
    return rep["exceptional"] == pairs and rep["count"] == len(pairs) and rep["largest"] == pairs[-1][0]


def _check_count(argv, out, refs):
    rep = json.loads(out)
    target = argv[argv.index("--target") + 1]
    want = refs["count"][target]
    allowed = COUNT_TOLERANCE * max(1, rep["characters_used"])
    return (
        rep["p"] == refs["count_p"]
        and rep["target"] == target
        and rep["brute_count"] == want
        and rep["residual"] <= allowed
        and abs(rep["charsum_value"] - want) <= allowed
    )


def _check_constants(argv, out, refs):
    rep = json.loads(out)
    cp, lval = refs["constants"]
    allowed = rep["l_tail_bound"] + FLOAT_SLACK
    return (
        rep["p"] == refs["constants_q"]
        and abs(rep["L_three_halves_quadratic"] - lval) <= allowed
        and abs(rep["C_p"] - cp) <= allowed
    )


def _check_verify(argv, out, refs):
    rep = json.loads(out)
    return rep["suite"] == "all" and rep["failures"] == 0 and rep["cases"] > 0


@dataclass(frozen=True)
class Workload:
    commands: Callable[[dict, int], list]  # (inputs, jobs) -> argv of each command
    check: Callable[[list, str, dict], bool]  # (argv, stdout, refs); the exit code is checked apart
    expect: tuple  # wrappers the traced run must see fire


WORKLOADS = {
    "hypothesis": Workload(
        _hypothesis_commands,
        _check_hypothesis,
        ("cli.main", "cli.cmd_hypothesis", "counting.hypothesis_scan", "arith.sieve_primes",
         "characters.build_context", "arith.least_primitive_root", "arith.factorize",
         "arith.is_primitive_root", "counting.least_squarefull_pr", "squarefull.squarefull_stream"),
    ),
    "count": Workload(
        _count_commands,
        _check_count,
        ("cli.main", "cli.cmd_count", "characters.build_context", "counting.count_by_target",
         "counting.pr_decomposition", "squarefull.squarefree_table",
         *(f"charsums.sum_char_{f}" for f in SUMS)),
    ),
    "constants": Workload(
        _constants_commands,
        _check_constants,
        ("cli.main", "cli.cmd_constants", "characters.build_context", "analytics.constants_report",
         "analytics.compute_Cp", "analytics.L_quadratic", "analytics.shapiro_c"),
    ),
    "verify": Workload(
        _verify_commands,
        _check_verify,
        ("cli.main", "cli.cmd_verify", "verify.run_suite", *(f"verify.run_{s}_suite" for s in SUITES),
         "counting.count_by_target", "characters.build_context", "analytics.compute_Cp",
         "analytics.L_quadratic", *(f"charsums.sum_char_{f}" for f in SUMS)),
    ),
}


def references(name: str, inputs: dict) -> dict:
    refs = dict(inputs)
    if name == "hypothesis":
        refs["hypothesis"] = reference.pinned_hypothesis()
    elif name == "count":
        refs["count"] = reference.count_reference(inputs["count_p"])
    elif name == "constants":
        refs["constants"] = reference.cp_reference(inputs["constants_q"])
    return refs


# -- child processes ----------------------------------------------------------


@dataclass
class Run:
    argv: list
    code: int
    spawned: float  # time.monotonic() just before the spawn
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    stdout: str
    stderr: list = field(repr=False)  # (time.monotonic() on arrival, line)
    trace: dict | None = None
    ok: bool = False


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, argv: list) -> Run:
    """Run `sfpr argv` in a fresh child (child.py), reap it with wait4."""
    env = dict(os.environ)
    env.pop("SFPR_JOBS", None)
    rfd, wfd = os.pipe()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(wfd), mode, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(wfd,),
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    os.close(wfd)
    sink = {"stdout": b"", "report": b"", "stderr": []}

    def read_all(stream, key):
        with stream:
            sink[key] = stream.read()

    def read_lines(stream):
        with stream:
            for line in stream:
                sink["stderr"].append((time.monotonic(), line.decode(errors="replace").rstrip()))

    threads = [
        threading.Thread(target=read_all, args=(proc.stdout, "stdout")),
        threading.Thread(target=read_lines, args=(proc.stderr,)),
        threading.Thread(target=read_all, args=(os.fdopen(rfd, "rb"), "report")),
    ]
    for t in threads:
        t.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in threads:
        t.join()
    try:
        report = json.loads(sink["report"])
    except ValueError:  # the child died before writing it
        report = {}
    start = report.get("start")
    return Run(
        argv=argv,
        code=proc.returncode,
        spawned=t0,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup=None if start is None else start - t0,
        stdout=sink["stdout"].decode(errors="replace"),
        stderr=sink["stderr"],
        trace=report.get("trace"),
    )


class Session:
    """Every child of one benchmark run, and whether each was correct."""

    def __init__(self, workload: Workload, refs: dict):
        self.workload = workload
        self.refs = refs
        self.runs: list[Run] = []

    def run(self, mode: str, argv: list) -> Run:
        r = spawn(mode, argv)
        if mode == "setup":
            r.ok = r.code == 0 and r.setup is not None
        else:
            try:
                r.ok = r.code == 0 and r.setup is not None and self.workload.check(argv, r.stdout, self.refs)
            except (ValueError, KeyError, TypeError, IndexError):
                r.ok = False
        if not r.ok:
            tail = "\n".join(line for _, line in r.stderr[-5:])
            print(f"FAILED ({mode}, exit {r.code}): sfpr {' '.join(argv)}\n{tail}", file=sys.stderr)
        self.runs.append(r)
        return r

    def batch(self, mode: str, commands: list) -> list[Run]:
        return [self.run(mode, argv) for argv in commands]

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.runs)


# -- measurement --------------------------------------------------------------


def end_to_end(session: Session, commands: list, seconds: float) -> dict:
    session.run("setup", commands[0])  # warm-up: bytecode compiled, page cache filled
    probes = [session.run("setup", commands[0]) for _ in range(SETUP_PROBES)]
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(session.batch("run", commands))
        last = sum(r.wall for r in passes[-1])
        if time.monotonic() - t0 + last > seconds:
            break
    setups = [r.setup for r in probes + [r for b in passes for r in b] if r.setup is not None]
    if not setups:
        raise SystemExit("no sfpr command reached the end of argument parsing")
    attempted = len(session.runs)
    values = {
        "wall_s": statistics.median(sum(r.wall for r in b) for b in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(sum(r.cpu for r in b) for b in passes),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in b) for b in passes),
        "ok_ratio": (attempted - session.failed) / attempted,
    }
    print(f"{len(passes)} passes of {len(commands)} command(s), {len(setups)} set-up samples", file=sys.stderr)
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _merge(traces: list[dict]) -> dict:
    stats, counts, maxima, cp = {}, {}, {}, {}
    for t in traces:
        for name, (calls, total, self_s) in t["stats"].items():
            c = stats.setdefault(name, [0, 0.0, 0.0])
            c[0] += calls
            c[1] += total
            c[2] += self_s
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in t["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
        cp.update(dict(t["cp_values"]))
    return {"stats": stats, "counts": counts, "maxima": maxima, "cp_values": cp}


def _block_times(run: Run) -> list[float]:
    """Serial seconds per block of primes, from the progress line the
    command prints after each block; the first block starts when argument
    parsing returns, so it also carries the sieve."""
    if run.setup is None:
        return []
    marks = [run.spawned + run.setup, *(t for t, line in run.stderr if line.startswith("hypothesis: "))]
    return [b - a for a, b in zip(marks, marks[1:])]


def traced(session: Session, name: str, inputs: dict) -> dict:
    wl = session.workload
    serial = wl.commands(inputs, 1)
    session.run("setup", serial[0])  # warm-up, as in end_to_end
    plain = session.batch("run", serial)
    spans = session.batch("trace", serial)
    tr = _merge([r.trace for r in spans if r.trace is not None])
    fired = {n for n, (calls, _, _) in tr["stats"].items() if calls} | {
        n.rsplit(".", 1)[0] for n, v in tr["counts"].items() if n.endswith(".calls") and v
    }
    missing = [n for n in wl.expect if n not in fired]
    if missing:
        raise SystemExit(f"traced run of {name}: expected wrappers never fired: {', '.join(missing)}")

    stats, counts, maxima = tr["stats"], tr["counts"], tr["maxima"]

    def total(n):
        return stats.get(n, [0, 0.0, 0.0])[1]

    def self_s(n):
        return stats.get(n, [0, 0.0, 0.0])[2]

    def calls(n):
        return stats.get(n, [0])[0] or counts.get(n + ".calls", 0)

    v = {
        "arith.least_primitive_root.s": total("arith.least_primitive_root"),
        "arith.least_primitive_root.calls": calls("arith.least_primitive_root"),
        "arith.factorize.s": total("arith.factorize"),
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.is_primitive_root.calls": calls("arith.is_primitive_root"),
        "arith.sieve_primes.s": total("arith.sieve_primes"),
        "characters.build_context.s": self_s("characters.build_context"),
        "characters.build_context.calls": calls("characters.build_context"),
        "characters.table_bytes": maxima.get("characters.table_bytes", 0),
        "characters.chi_tables": maxima.get("characters.chi_tables", 0),
        "squarefull.squarefull_stream.items": counts.get("squarefull.squarefull_stream.items", 0),
        "squarefull.squarefree_table.s": total("squarefull.squarefree_table"),
        "counting.characters_used": maxima.get("counting.characters_used", 0),
        "counting.least_squarefull_pr.s": total("counting.least_squarefull_pr"),
        "analytics.L_quadratic.s": total("analytics.L_quadratic"),
        "analytics.L_quadratic.terms": counts.get("analytics.L_quadratic.terms", 0),
        "analytics.compute_Cp.s": self_s("analytics.compute_Cp"),
        "analytics.compute_Cp.terms_direct": counts.get("analytics.compute_Cp.terms_direct", 0),
        "cli.main.self_s": sum(s for n, (_, _, s) in stats.items() if n.startswith("cli.")),
        "trace.overhead_s": sum(r.wall for r in spans) - sum(r.wall for r in plain),
    }
    for f in SUMS:
        n = f"charsums.sum_char_{f}"
        v[f"{n}.s"] = total(n)
        v[f"{n}.calls"] = calls(n)
        v[f"{n}.terms"] = counts.get(f"{n}.terms", 0)
    for route in ("brute", "charsum"):
        for f in FAMILIES:
            v[f"counting.{route}.{f}.s"] = counts.get(f"counting.{route}.{f}.s", 0.0)
    for s in SUITES:
        n = f"verify.run_{s}_suite"
        v[f"{n}.s"] = total(n)
        v[f"{n}.cases"] = counts.get(f"{n}.cases", 0)
    prs = calls("counting.least_squarefull_pr")
    v["counting.candidates_per_prime"] = calls("arith.is_primitive_root") / prs if prs else 0.0
    v["analytics.cp_abs_err"] = max(
        (abs(c - reference.cp_reference(p)[0]) for p, c in tr["cp_values"].items()), default=0.0
    )
    v["counting.block_imbalance"] = v["counting.pool_eff"] = 0.0
    if name == "hypothesis":
        blocks = _block_times(plain[0])
        if not blocks:
            raise SystemExit("hypothesis printed no per-block progress lines")
        parallel = session.run("run", wl.commands(inputs, JOBS)[0])
        v["counting.block_imbalance"] = max(blocks) / statistics.fmean(blocks)
        v["counting.pool_eff"] = sum(blocks) / (JOBS * parallel.wall)
    return {n: (v[n], unit) for n, unit in PER_LAYER.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sfpr" / "cli.py").is_file():
        print(f"no sfpr sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    inputs = reference.pick_inputs(args.seed)
    session = Session(WORKLOADS[args.workload], references(args.workload, inputs))
    print(f"workload {args.workload}, seed {args.seed}: inputs {inputs}", file=sys.stderr)
    if args.trace:
        metrics = traced(session, args.workload, inputs)
    else:
        metrics = end_to_end(session, WORKLOADS[args.workload].commands(inputs, JOBS), args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}", file=sys.stderr)
    result = {
        "correct": session.failed == 0,
        "attempted": len(session.runs),
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

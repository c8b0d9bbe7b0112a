"""One sfpr command in a fresh interpreter, as the benchmark's child process.

    python3 child.py FD MODE ARG...

runs `sfpr ARG...` through `sfpr.cli.main`, the function behind the `sfpr`
console script, so stdout, stderr and the exit code are the command's own.
FD is a pipe the parent passes in; at exit one JSON object is written to it:

    {"start": <time.monotonic() when argument parsing returned>,
     "trace": <tracer report, MODE "trace" only>}

MODE "run" runs the command untouched apart from that one timestamp, "setup"
stops right after argument parsing, and "trace" installs the benchmark's
wrappers (tracer.py) before running.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    from sfpr import cli

    report: dict = {}
    parse_args = argparse.ArgumentParser.parse_args

    def marked_parse_args(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        report.setdefault("start", time.monotonic())
        if mode == "setup":
            raise SystemExit(0)
        return ns

    argparse.ArgumentParser.parse_args = marked_parse_args
    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.report()
        with os.fdopen(fd, "w") as out:
            json.dump(report, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

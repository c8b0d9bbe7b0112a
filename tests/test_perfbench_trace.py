"""A traced benchmark child sees the layers of a small `hypothesis` run fire.

The tracer wraps public layer functions when it is installed, after sfpr is
imported, so a function called only through a reference taken at import
time would escape it. The square-full candidate stream in particular must be
started on first use, from the module attribute, for its items to be
counted."""

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_traced_hypothesis_run_fires_the_search_layers():
    rfd, wfd = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(wfd), "trace", "hypothesis", "--limit", "20000", "--jobs", "1"],
            pass_fds=(wfd,), capture_output=True, text=True, timeout=120,
        )
    finally:
        os.close(wfd)
    with os.fdopen(rfd) as pipe:
        report = json.load(pipe)["trace"]
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["limit"] == 20000
    assert report["counts"]["squarefull.squarefull_stream.items"] > 0
    assert report["counts"]["arith.is_primitive_root.calls"] > 0
    assert report["stats"]["counting.least_squarefull_pr"][0] > 0

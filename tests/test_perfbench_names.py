"""The traced benchmark run fails when a wrapper it expects never fires, and
the tracer wraps only the public functions of the sfpr layer modules. Every
name the workloads expect must therefore stay such a function, so that a
deletion or a rebinding (say, to a functools.partial) fails here first."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's run and tracer modules, imported from their directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("run", "tracer", "reference"):
            sys.modules.pop(name, None)


def test_expected_wrappers_are_public_layer_functions(perfbench):
    run, tracer = perfbench
    names = {name for wl in run.WORKLOADS.values() for name in wl.expect}
    assert "counting.least_squarefull_pr" in names
    for name in sorted(names):
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        module = importlib.import_module(f"sfpr.{layer}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
    # its wrapper counts the items consumed, which only a generator yields
    assert inspect.isgeneratorfunction(importlib.import_module("sfpr.squarefull").squarefull_stream)

"""Wrappers around the public functions of the sfpr layers, for the traced run.

`Tracer.install()` replaces every public function of the layer modules at
every place that binds it: the defining module, every `from .x import name`
copy in another sfpr module, and module-level dicts, lists and tuples that
hold it (such as a table of per-family functions). Three kinds of wrapper:

- timed: a span per call. Spans stay in memory as running aggregates per
  function (calls, inclusive seconds, self seconds); self time is the span's
  duration minus the time its child spans cover.
- counted: hot leaf functions (one call per candidate or per term) only count
  calls, so their cost stays in the enclosing span's self time instead of
  being inflated by two clock reads per call.
- generators: count the items consumed.

Some wrappers also read the returned object for a work count (terms summed,
cases checked). Nothing is written until `report()`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("arith", "squarefull", "characters", "charsums", "counting", "analytics", "verify", "cli")

COUNTED = {
    "arith.is_prime",
    "arith.divisors",
    "arith.euler_phi",
    "arith.mobius",
    "arith.omega",
    "arith.legendre",
    "arith.is_primitive_root",
    "arith.icbrt",
    "squarefull.is_squarefull",
    "squarefull.canonical_decompose",
    "characters.char_eval",
    "characters.principal",
    "characters.quadratic",
    "analytics.zeta",
}

COUNT_FUNCTIONS = {
    "counting.count_by_target",
    "counting.count_squarefull_pr",
    "counting.count_prime_powerful_pr",
    "counting.count_squarefree_pr",
}


def context_footprint(ctx) -> tuple[int, int]:
    """(bytes of every numpy array the context holds, number of
    per-character tables), where a per-character table is a complex array
    over all p residues (value tables and their prefix sums)."""
    seen = set()
    nbytes = tables = 0
    todo = list(vars(ctx).values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            if id(obj) not in seen:
                seen.add(id(obj))
                nbytes += obj.nbytes
                tables += obj.dtype.kind == "c" and obj.shape == (ctx.p,)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return nbytes, tables


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total_s, self_s
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.cp_values = {}
        self._stack = []  # per open span: [seconds covered by its children]
        self._contexts = weakref.WeakSet()
        self._ctx_depth = defaultdict(int)
        self._context_type = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"sfpr.{name}"] for name in LAYERS}
        self._context_type = modules["characters"].PrimeContext
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name == "sfpr" or name.startswith("sfpr."):
                for attr, value in list(vars(mod).items()):
                    if attr.startswith("__"):
                        continue
                    new = _rebind(value, wrapped)
                    if new is not value:
                        setattr(mod, attr, new)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._items(name, fn)
        if name in COUNTED:
            return self._counted(name, fn)
        return self._timed(name, fn)

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _items(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".items"] += 1
                yield item

        return wrapper

    def _timed(self, name, fn):
        stats, stack = self.stats, self._stack
        on_return = self._on_return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = args[0] if args and isinstance(args[0], self._context_type) else None
            if ctx is not None:
                self._ctx_depth[id(ctx)] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = stats[name]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                if ctx is not None:
                    self._ctx_depth[id(ctx)] -= 1
            on_return(name, result, ctx)
            return result

        return wrapper

    # -- work counts read from arguments and results -------------------------

    def _on_return(self, name, result, ctx) -> None:
        if name == "characters.build_context":
            for live in list(self._contexts):
                self._sample(live)
            self._contexts.add(result)
        elif ctx is not None and self._ctx_depth[id(ctx)] == 0:
            self._sample(ctx)
        if name.startswith("charsums.sum_char_"):
            self.counts[name + ".terms"] += result.terms_used
        elif name in COUNT_FUNCTIONS:
            family = result.target
            for route, elapsed in (("brute", result.elapsed_brute), ("charsum", result.elapsed_charsum)):
                if elapsed is not None:
                    self.counts[f"counting.{route}.{family}.s"] += elapsed
            self._max("counting.characters_used", result.characters_used)
        elif name == "analytics.L_quadratic":
            self.counts["analytics.L_quadratic.terms"] += result.terms
        elif name == "analytics.compute_Cp":
            self.counts["analytics.compute_Cp.terms_direct"] += result.terms_direct
            self.cp_values[result.p] = result.closed
        elif name.startswith("verify.run_") and name.endswith("_suite"):
            self.counts[name + ".cases"] += result["cases"]

    def _sample(self, ctx) -> None:
        nbytes, tables = context_footprint(ctx)
        self._max("characters.table_bytes", nbytes)
        self._max("characters.chi_tables", tables)

    def _max(self, key, value) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def report(self) -> dict:
        for live in list(self._contexts):
            self._sample(live)
        return {
            "stats": dict(self.stats),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "cp_values": sorted(self.cp_values.items()),
        }


def _rebind(value, wrapped):
    """value with every wrapped function inside it replaced; the same object
    when nothing inside changed. Descends dicts (in place), lists (in place)
    and tuples (rebuilt)."""
    if callable(value) and id(value) in wrapped:
        return wrapped[id(value)]
    if isinstance(value, dict):
        for k, v in list(value.items()):
            new = _rebind(v, wrapped)
            if new is not v:
                value[k] = new
    elif isinstance(value, list):
        for i, v in enumerate(value):
            new = _rebind(v, wrapped)
            if new is not v:
                value[i] = new
    elif isinstance(value, tuple):
        items = tuple(_rebind(v, wrapped) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value

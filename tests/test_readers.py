"""Every name a sfpr module exports has a reader in the program: each name in
a module's __all__ is read somewhere in src/sfpr outside its own definition.
A name that only the tests read belongs in the tests. Likewise every default
has a caller in the program that sets it; a value no caller sets is a
constant."""

import ast
import builtins
import functools
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sfpr"

# module.name -> why it stays exported without a reader in src
NO_READER = {"analytics.cp_ratio_sweep": "ROADMAP item 2 step 3 gives it a subcommand"}


def _defined(stmt) -> set[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _reads(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(defining module, name) of every sfpr name that module reads, through
    its own top-level names, `from .m import name` and `m.name` after
    `from . import m`; a read inside the definition of the same name is
    left out."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    spans = [(s.lineno, s.end_lineno, _defined(s)) for s in tree.body]
    for _, _, defined in spans:
        names.update({name: (module, name) for name in defined})
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            if not any(lo <= node.lineno <= hi and node.id in d for lo, hi, d in spans):
                reads.add(names[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    return reads


@functools.cache
def _program() -> tuple[dict[str, tuple[str, ...]], set[tuple[str, str]]]:
    """The __all__ of every sfpr module that has one, and every read."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exports = {
        module: tuple(importlib.import_module(f"sfpr.{module}").__all__)
        for module, tree in trees.items()
        if any("__all__" in _defined(stmt) for stmt in tree.body)
    }
    return exports, set().union(*(_reads(module, tree) for module, tree in trees.items()))


def test_every_exported_name_has_a_reader_in_src():
    exports, reads = _program()
    assert {"arith", "squarefull", "characters", "charsums", "counting", "analytics", "verify"} <= set(exports)
    unread = [
        f"{module}.{name}"
        for module, names in exports.items()
        for name in names
        if (module, name) not in reads and f"{module}.{name}" not in NO_READER
    ]
    assert unread == []


def test_every_listed_exception_is_exported_and_unread():
    # an exception that gained a reader, or left __all__, is stale
    exports, reads = _program()
    for key in NO_READER:
        module, name = key.split(".")
        assert name in exports[module] and (module, name) not in reads, key


# Every default in src has a program caller: each parameter default, and each
# defaulted dataclass field, is passed by position or keyword at some src call
# to that name. A keyword passed through a registry or a local name, as in
# SUITES[name](progress=...), counts for every function with that parameter.

# module.name.parameter -> why its default stays with no src caller passing it
UNPASSED = {
    "cli.main.argv": "the console script calls main() with none",
    "verify.run_identity_suite.seed": "acceptance criterion 1 passes its own seed",
}


def _defaults(module: str, tree: ast.Module):
    """(module.name.parameter, name, parameter, position) of every default of
    a module; position counts call arguments, so it skips a method's self,
    and is None for a keyword-only parameter."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            params = [(a.arg, i) for i, a in enumerate(node.args.posonlyargs + node.args.args)]
            params = params[len(params) - len(node.args.defaults) :]
            params += [(a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d]
            skip = id(node) in methods
            for arg, i in params:
                yield f"{module}.{node.name}.{arg}", node.name, arg, None if i is None else i - skip
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.dump(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            for i, s in enumerate(fields):
                if s.value is not None:
                    yield f"{module}.{node.name}.{s.target.id}", node.name, s.target.id, i


def _unpassed_defaults() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    named = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    imported = {
        a.asname or a.name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names
    }
    # (callee, position or keyword) of the calls to a src name; the keywords
    # of calls through a registry or a local name
    passed, anywhere = set(), set()
    for call in (n for n in nodes if isinstance(n, ast.Call)):
        f = call.func
        callee = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        keywords = {k.arg for k in call.keywords}
        if callee in named:
            passed |= {(callee, i) for i in range(len(call.args))} | {(callee, k) for k in keywords}
        elif callee is None or isinstance(f, ast.Name) and callee not in imported | set(vars(builtins)):
            anywhere |= keywords
    return sorted(
        key
        for module, tree in trees.items()
        for key, name, arg, i in _defaults(module, tree)
        if not ({(name, i), (name, arg)} & passed or arg in anywhere)
    )


def test_every_default_is_passed_by_a_src_caller():
    assert [key for key in _unpassed_defaults() if key not in UNPASSED] == []


def test_every_listed_default_is_still_unpassed():
    assert set(UNPASSED) <= set(_unpassed_defaults())

"""Every name a sfpr module exports has a reader in the program: each name in
a module's __all__ is read somewhere in src/sfpr outside its own definition.
A name that only the tests read belongs in the tests."""

import ast
import functools
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sfpr"

# module.name -> why it stays exported without a reader in src
NO_READER = {"analytics.cp_ratio_sweep": "ROADMAP item 1 gives it a subcommand"}


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

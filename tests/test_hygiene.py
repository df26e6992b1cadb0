"""Every module of the package uses each name it imports (the package
__init__, which imports to re-export, is exempt).  A name used only in a
quoted annotation counts as unused: under ``from __future__ import
annotations`` it needs no quotes."""

import ast
import os

import graphck

PACKAGE = os.path.dirname(os.path.abspath(graphck.__file__))


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def test_no_module_imports_a_name_it_never_uses():
    stale = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        stale += [
            "%s:%d %s" % (fname, line, name)
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert not stale, stale

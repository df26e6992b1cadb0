"""Every module of the package uses each name it imports (the package
__init__, which imports to re-export, is exempt).  A name used only in a
quoted annotation counts as unused: under ``from __future__ import
annotations`` it needs no quotes.  Every private module-level function
or class is used somewhere in the package.  Every absolute import names a
standard-library module: the runtime needs nothing else."""

import ast
import os
import sys
from collections import Counter

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


def _modules() -> dict[str, ast.Module]:
    trees = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                trees[fname] = ast.parse(fh.read(), fname)
    return trees


def test_no_module_imports_a_name_it_never_uses():
    stale = []
    for fname, tree in _modules().items():
        if fname == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        stale += [
            "%s:%d %s" % (fname, line, name)
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert not stale, stale


def _uses(node: ast.AST) -> Counter:
    # a definition is not a Name node, so every Name or attribute is a use
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_helper_has_a_caller():
    trees = _modules()
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    orphans = [
        "%s:%d %s" % (fname, node.lineno, node.name)
        for fname, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and used[node.name] == _uses(node)[node.name]
    ]
    assert not orphans, orphans


def test_package_imports_only_the_standard_library():
    foreign = []
    for fname, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                "%s:%d %s" % (fname, node.lineno, top)
                for top in tops
                if top not in sys.stdlib_module_names
            ]
    assert not foreign, foreign

"""Every module of the package uses each name it imports (the package
__init__, which imports to re-export, is exempt).  A name used only in a
quoted annotation counts as unused: under ``from __future__ import
annotations`` it needs no quotes.  Every private module-level function
or class is used somewhere in the package.  Every public one is used by
the package, its command line or the benchmark, or the allow list below
gives the reason it stays.  Every absolute import names a standard-library
module: the runtime needs nothing else."""

import ast
import os
import sys
from collections import Counter

import graphck

PACKAGE = os.path.dirname(os.path.abspath(graphck.__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmark")

# Public names with no caller in the package, the CLI or the benchmark.
UNCALLED_BY_DESIGN = {
    "FiniteTree": "cone sets over a tree-shaped graph, checked by acceptance criterion 1",
    "invariant_leq": "the family order itself, the reference order of the hasse_edges oracle",
    "invert_arrow": "the inverse arrow, checked by acceptance criterion 3",
    "lift_invariant": "a family pulled back to every fiber, checked by acceptance criterion 2",
    "LiftedInvariant": "what lift_invariant returns",
    "point_in_boundary": "boundary membership once marked vertices are interior, in the README tour",
    "in_transversal": "membership of the transversal, in the README tour",
    "transversal_translate": "translation into the transversal, in the README tour",
    "end_member": "end membership of a ring set, in the README tour",
    "isotropy": "the isotropy of a boundary point, in the README tour",
    "free_point_from": "a point with trivial isotropy, in the README tour",
    "AperiodicDescriptor": "what free_point_from returns",
}


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


def _modules(directory: str = PACKAGE) -> dict[str, ast.Module]:
    trees = {}
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
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


def test_every_public_name_has_a_caller_or_a_reason():
    trees = _modules()
    del trees["__init__.py"]
    callers = list(trees.values()) + list(_modules(BENCHMARK).values())
    used = sum((_uses(tree) for tree in callers), Counter())
    public = [
        node
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    # a name used only inside uncalled definitions is uncalled too
    uncalled = {}
    while True:
        fresh = {
            node.name: node
            for node in public
            if node.name not in uncalled and not (used - _uses(node))[node.name]
        }
        if not fresh:
            break
        uncalled.update(fresh)
        for node in fresh.values():
            used -= _uses(node)
    assert set(uncalled) == set(UNCALLED_BY_DESIGN)


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

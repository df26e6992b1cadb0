"""Every module of the package uses each name it imports, and a name
imported inside a function is used in that function.  A name used only
in a quoted annotation counts as unused: under ``from __future__ import
annotations`` it needs no quotes.  Every private module-level function
or class is used somewhere in the package, except a module
``__getattr__``, which the interpreter calls.  Every public one, and every
method of a public class, private methods included, is used by the
package, its command line or the benchmark, or the allow list below gives
the reason it stays.  A class on the list covers its methods, and listed
code counts as a caller of other methods.  Every absolute import names a
standard-library module: the runtime needs nothing else.  Every letter
the package builds comes from ``EdgeInstance.signed``, and every edge
instance from ``EdgeBundle.instance``, so equal letters of one instance,
and equal instances of one bundle, are one object.  Only ``RingSet.of``
checks blocks disjoint, as operations build disjoint blocks.

Uses are matched by name: a method counts as called when an attribute
of the same name is used anywhere in the package or the benchmark (a
bare name is a local or a module-level definition, never a method).
Where a name has more than one owner, a name alone says nothing: a
method whose name another package class also defines, as a method,
property or dataclass field, or that names a command-line option (an
attribute of the parsed arguments), counts as called only when
SHARED_NAME_CALLERS lists it with a function or method that reaches it
there, which must use the name, or when the allow list gives its reason.
A method named like a module, a local or a list method (a ``paths``
property, an ``index`` method) still passes unseen."""

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
    "StandardForm.alpha": "alpha = beta1.beta2^-1, checked by acceptance criterion 3",
    "StandardForm.point": "y = beta2.x, checked by acceptance criterion 3",
    "Invariant.make": "the validating constructor of a family from outside, in the README tour",
}

# Methods whose name has another owner (see the module docstring), each
# with a package caller that reaches it: "module.py function" or
# "module.py Class.method".
SHARED_NAME_CALLERS = {
    "ArrowBlock.terminus": "cli.py cmd_af_blocks",
    "EdgeBundle.trusted": "graphs.py parse_graph",
    "EdgeBundle.instance": "invariants.py tree_invariant_of",
    "EdgeBundle.instances": "invariants.py enumerate_invariants",
    "EdgeInstance.origin": "invariants.py is_invariant",
    "EdgeInstance.terminus": "ringsets.py swallow_test",
    "EdgeInstance.sort_key": "ringsets.py basic_diff",
    "SignedEdge.sort_key": "paths.py Path.letter_keys",
    "Graph.has_vertex": "invariants.py induced_marks",
    "Graph.check_vertex": "invariants.py is_invariant",
    "Graph.bundle": "invariants.py is_invariant",
    "Graph.instance": "setexpr.py _Parser._instance",
    "Path.trusted": "paths.py Path.prefix",
    "Path.unit": "trees.py FiberTree.unit",
    "Path.terminus": "trees.py FiberTree.endpoint",
    "Path.is_directed": "cover.py in_transversal",
    "Path.word_prefix": "cover.py standard_form",
    "Path.drop": "cover.py standard_form",
    "Path.letter_keys": "trees.py FiberTree.letter_keys",
    "Path.sort_key": "trees.py FiberTree.vkey",
    "Lasso.of": "points.py act",
    "Lasso.origin": "cover.py standard_form",
    "Lasso.is_directed": "cover.py in_transversal",
    "Lasso.word_prefix": "cover.py standard_form",
    "Lasso.prefix_path": "cover.py end_member",
    "Lasso.drop": "cover.py transversal_translate",
    "RingSet.of": "ringsets.py RingSet.pushforward",
    "RingSet.union": "ringsets.py RingSet.joined",
    "RingSet.has_vertex": "cover.py end_member",
    "FiberTree.unit": "trees.py FiberTree.directed_to_depth",
    "FiberTree.check_vertex": "ringsets.py _validate_basic",
    "FiberTree.word": "ringsets.py basic_diff",
    "FiberTree.endpoint": "invariants.py open_set_of",
    "FiberTree.child": "ringsets.py basic_diff",
    "FiberTree.along": "trees.py Tree.relation",
    "FiberTree.letter_keys": "ringsets.py _levels",
    "FiberTree.vkey": "ringsets.py _sorted",
}


def _imported(tree: ast.Module) -> list[tuple[str, int, ast.AST]]:
    """(name, line, scope) for each name an import binds; the scope is the
    innermost function around the import, or else the module."""
    names = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                bound = [a.asname or a.name for a in child.names]
            else:
                bound = []
            names.extend((name, child.lineno, scope) for name in bound)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
            else:
                visit(child, scope)

    visit(tree, tree)
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
        stale += [
            "%s:%d %s" % (fname, line, name)
            for name, line, scope in _imported(tree)
            if name not in {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
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
        and node.name != "__getattr__"  # a module's, called by the interpreter
        and used[node.name] == _uses(node)[node.name]
    ]
    assert not orphans, orphans


def _attribute_uses(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _uncalled(candidates: dict[str, ast.AST], used: Counter, uses=_uses) -> set[str]:
    """The keys of the candidates whose name is used nowhere but inside
    themselves or inside other uncalled candidates."""
    uncalled = {}
    while True:
        fresh = {
            key: node
            for key, node in candidates.items()
            if key not in uncalled and not (used - uses(node))[node.name]
        }
        if not fresh:
            return set(uncalled)
        uncalled.update(fresh)
        for node in fresh.values():
            used -= uses(node)


def _public():
    """The public module-level definitions, and the uses of every name by
    the package, its command line and the benchmark."""
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
    return public, used


def test_every_public_name_has_a_caller_or_a_reason():
    public, used = _public()
    uncalled = _uncalled({node.name: node for node in public}, used)
    assert uncalled == {name for name in UNCALLED_BY_DESIGN if "." not in name}


def _definitions(trees: dict[str, ast.Module]) -> dict[str, ast.AST]:
    """"module.py function" and "module.py Class.method" for every
    module-level function and every method in the trees."""
    found = {}
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found["%s %s" % (fname, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        found["%s %s.%s" % (fname, node.name, f.name)] = f
    return found


def _owned_elsewhere(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Each name a package class defines (method, property or dataclass
    field) -> the classes defining it; a command-line option's name maps
    to "args" as well."""
    owners: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owners.setdefault(item.name, set()).add(node.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        owners.setdefault(item.target.id, set()).add(node.name)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add_argument"
                and isinstance(node.args[0], ast.Constant)
            ):
                option = node.args[0].value.lstrip("-").replace("-", "_")
                owners.setdefault(option, set()).add("args")
    return owners


def _uncalled_methods(trees: dict[str, ast.Module]) -> set[str]:
    """The methods of public classes not on the allow list that count as
    uncalled (see the module docstring); dunder methods are called by the
    language.  Every definition in the package and the benchmark counts
    as a caller, the allow-listed ones included."""
    package = {f: t for f, t in trees.items() if f != "__init__.py"}
    used = sum(map(_attribute_uses, [*package.values(), *_modules(BENCHMARK).values()]), Counter())
    owners = _owned_elsewhere(trees)
    methods = {
        "%s.%s" % (cls.name, node.name): node
        for tree in package.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and not cls.name.startswith("_")
        and cls.name not in UNCALLED_BY_DESIGN
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    }
    shared = {key for key in methods if owners[key.split(".")[1]] - {key.split(".")[0]}}
    unshared = {key: methods[key] for key in methods if key not in shared}
    return _uncalled(unshared, used, _attribute_uses) | (shared - set(SHARED_NAME_CALLERS))


def test_every_method_of_a_public_class_has_a_caller():
    """Private methods too."""
    assert _uncalled_methods(_modules()) == {name for name in UNCALLED_BY_DESIGN if "." in name}


def test_each_listed_caller_reaches_its_shared_name():
    definitions = _definitions(_modules())
    owners = _owned_elsewhere(_modules())
    for method, caller in SHARED_NAME_CALLERS.items():
        cls, name = method.split(".")
        assert owners[name] - {cls}, "%s has no other owner" % method
        assert _attribute_uses(definitions[caller])[name], (method, caller)


def test_methods_that_only_tests_reach_are_not_called():
    # put back, each of these counts as uncalled: their names have other owners
    trees = _modules()
    restored = {
        "structure.py": ("Cycle", "origin", "vertices"),
        "cover.py": ("ArrowBlock", "length"),
        "invariants.py": ("Invariant", "sort_key"),
    }
    for fname, (cls, *names) in restored.items():
        (node,) = [n for n in trees[fname].body if isinstance(n, ast.ClassDef) and n.name == cls]
        for name in names:
            node.body += ast.parse("def %s(self):\n    return self.%s\n" % (name, name)).body
    flagged = _uncalled_methods(trees) - {name for name in UNCALLED_BY_DESIGN if "." in name}
    assert flagged == {"%s.%s" % (cls, n) for cls, *names in restored.values() for n in names}


def _built_only_in(callee: str, module: str, cls: str, method: str) -> tuple[int, list[str]]:
    """How many calls of callee the method cls.method of the module file
    makes, and where else in the package callee is called."""

    def calls(node):
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
            == callee
        ]

    trees = _modules()
    allowed = {
        id(call)
        for c in trees[module].body
        if isinstance(c, ast.ClassDef) and c.name == cls
        for node in c.body
        if isinstance(node, ast.FunctionDef) and node.name == method
        for call in calls(node)
    }
    stray = [
        "%s:%d" % (fname, call.lineno)
        for fname, tree in trees.items()
        for call in calls(tree)
        if id(call) not in allowed
    ]
    return len(allowed), stray


def test_letters_are_built_only_by_edge_instance_signed():
    assert _built_only_in("SignedEdge", "graphs.py", "EdgeInstance", "signed") == (2, [])


def test_instances_are_built_only_by_edge_bundle_instance():
    assert _built_only_in("EdgeInstance", "graphs.py", "EdgeBundle", "instance") == (1, [])


def test_only_ring_set_of_sweeps_its_blocks():
    # an operation builds disjoint blocks; only blocks from outside are swept
    assert _built_only_in("_swept", "ringsets.py", "RingSet", "of") == (1, [])


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

"""Combinatorial skeleton of graph C*-algebras.

The package works with directed graphs whose edge bundles carry finite
or infinite multiplicity.  On top of them it builds the tree of reduced
paths, a calculus of cone sets and their ends, the arrows between ends
with their degree, the lattice of vertex families that classifies the
invariant open sets, decidable structure verdicts, and finite
path-space representations of the generator relations.

Modules load on demand.  ``import graphck`` runs this file alone; the
first use of a public name, such as ``graphck.build_basis`` or ``from
graphck import build_basis``, imports its home module (and what that
module imports), and later uses read the name straight from the package.
A submodule is imported as usual: ``import graphck.fock``.
"""

import importlib

__version__ = "0.1.0"

# Every public name by its home module, the module that defines it.
_HOMES = {
    "graphs": (
        "OMEGA", "CapError", "EdgeBundle", "EdgeInstance", "FockError", "Graph", "GraphError",
        "GraphSyntaxError", "InvariantError", "PathError", "PointError", "SetExprError",
        "SignedEdge", "is_omega", "load_graph", "parse_graph",
    ),
    "paths": ("Path", "parse_path"),
    "trees": ("FiberTree", "FiniteTree", "TreeError"),
    "ringsets": ("BasicSet", "RingError", "RingSet"),
    "points": ("Lasso", "act", "parse_point"),
    "cover": (
        "af_block_enumerate", "compose_arrows", "degree", "end_member", "in_transversal",
        "invert_arrow", "lift_invariant", "point_in_boundary", "standard_form",
        "transversal_translate",
    ),
    "invariants": (
        "Invariant", "enumerate_invariants", "family_open_set", "hasse_edges", "induced_marks",
        "invariant_leq", "is_invariant", "open_set_of", "quotient_data", "tree_invariant_of",
    ),
    "structure": (
        "StructureError", "count_paths_into", "find_cycles", "free_point_from", "isotropy",
        "structure_report",
    ),
    "fock": (
        "algebra_dimension", "all_hold", "build_basis", "generator_matrices", "verify_relations",
    ),
    "setexpr": ("parse_setexpr",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name on its first use, and keep
    the name in the package so that later lookups never come here."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value

"""Combinatorial skeleton of graph C*-algebras.

The package works with directed graphs whose edge bundles carry finite
or infinite multiplicity.  On top of them it builds the tree of reduced
paths, a calculus of cone sets and their ends, the arrows between ends
with their degree, the lattice of vertex families that classifies the
invariant open sets, decidable structure verdicts, and finite
path-space representations of the generator relations.
"""

from .graphs import (
    OMEGA,
    CapError,
    EdgeBundle,
    EdgeInstance,
    Graph,
    GraphError,
    GraphSyntaxError,
    SignedEdge,
    is_omega,
    load_graph,
    parse_graph,
)
from .paths import Path, PathError, parse_path
from .trees import FiberTree, FiniteTree, TreeError
from .ringsets import BasicSet, RingError, RingSet
from .points import Lasso, PointError, act, parse_point
from .cover import (
    af_block_enumerate,
    compose_arrows,
    degree,
    end_member,
    in_transversal,
    invert_arrow,
    lift_invariant,
    point_in_boundary,
    standard_form,
    transversal_translate,
)
from .invariants import (
    Invariant,
    InvariantError,
    enumerate_invariants,
    family_open_set,
    hasse_edges,
    induced_marks,
    invariant_leq,
    is_invariant,
    open_set_of,
    quotient_data,
    tree_invariant_of,
)
from .structure import (
    StructureError,
    count_paths_into,
    find_cycles,
    free_point_from,
    isotropy,
    structure_report,
)
from .fock import (
    FockError,
    algebra_dimension,
    all_hold,
    build_basis,
    generator_matrices,
    verify_relations,
)
from .setexpr import SetExprError, parse_setexpr

__version__ = "0.1.0"

__all__ = [
    "OMEGA",
    "BasicSet",
    "CapError",
    "EdgeBundle",
    "EdgeInstance",
    "FiberTree",
    "FiniteTree",
    "FockError",
    "Graph",
    "GraphError",
    "GraphSyntaxError",
    "Invariant",
    "InvariantError",
    "Lasso",
    "Path",
    "PathError",
    "PointError",
    "RingError",
    "RingSet",
    "SetExprError",
    "SignedEdge",
    "StructureError",
    "TreeError",
    "act",
    "af_block_enumerate",
    "algebra_dimension",
    "all_hold",
    "build_basis",
    "compose_arrows",
    "count_paths_into",
    "degree",
    "end_member",
    "enumerate_invariants",
    "family_open_set",
    "find_cycles",
    "free_point_from",
    "generator_matrices",
    "hasse_edges",
    "in_transversal",
    "induced_marks",
    "invariant_leq",
    "invert_arrow",
    "is_invariant",
    "is_omega",
    "isotropy",
    "lift_invariant",
    "load_graph",
    "open_set_of",
    "parse_graph",
    "parse_path",
    "parse_point",
    "parse_setexpr",
    "point_in_boundary",
    "quotient_data",
    "standard_form",
    "structure_report",
    "transversal_translate",
    "tree_invariant_of",
    "verify_relations",
]

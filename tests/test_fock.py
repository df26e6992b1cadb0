import random
from fractions import Fraction

import pytest

from graphck import fock
from graphck.fock import (
    FockError,
    RelationReport,
    algebra_dimension,
    all_hold,
    build_basis,
    verify_relations,
)
from graphck.graphs import CapError, Graph, parse_graph
from graphck.invariants import induced_marks
from graphck.paths import parse_path
from graphck.structure import count_paths_into
from helpers import OracleSparseOperator as SparseOperator
from helpers import basis_index, basis_paths
from helpers import oracle_generator_matrices as generator_matrices

EXACT = ("edge", "two", "chain", "par", "t2")

# mode "ck" first, then "toeplitz"
EXPECTED_DIMS = {
    "edge": (4, 5),
    "two": (8, 9),
    "chain": (9, 14),
    "par": (9, 10),
    "t2": (36, 45),
}


def test_sparse_operator_arithmetic():
    a = SparseOperator.of(3, {(0, 1): 1, (1, 2): 2})
    b = SparseOperator.of(3, {(1, 0): 1})
    assert (a @ b).todict() == {(0, 0): Fraction(1)}
    assert (b @ a).todict() == {(1, 1): Fraction(1)}
    assert a.adjoint().todict() == {(1, 0): Fraction(1), (2, 1): Fraction(2)}
    assert (a - a).is_zero()
    assert (a + b) - b == a
    ident = SparseOperator.identity(3)
    assert ident @ a == a
    assert a.restrict_columns({2}).todict() == {(1, 2): Fraction(2)}
    assert SparseOperator.of(3, {(0, 0): 1, (2, 2): 1}).is_diagonal_01()
    assert not SparseOperator.of(3, {(0, 1): 1}).is_diagonal_01()


def test_basis_contents(graphs):
    edge = build_basis(graphs["edge"])
    assert [str(p) for p in basis_paths(edge)] == ["u", "v", "e"]
    assert edge.exact and edge.mode == "toeplitz" and edge.marks == frozenset()

    ck = build_basis(graphs["edge"], "ck")
    assert [str(p) for p in basis_paths(ck)] == ["v", "e"]
    assert ck.marks == frozenset({"u"})

    chain = build_basis(graphs["chain"], "ck")
    assert [str(p) for p in basis_paths(chain)] == ["w", "b", "a.b"]

    half = build_basis(graphs["chain"], "ck", marks={"v"})
    assert [str(p) for p in basis_paths(half)] == ["u", "w", "b", "a.b"]


def test_basis_modes_and_errors(graphs):
    with pytest.raises(FockError):
        build_basis(graphs["edge"], "weird")
    with pytest.raises(FockError):
        build_basis(graphs["edge"], "ck", marks={"v"})  # v is a sink
    with pytest.raises(FockError):
        build_basis(graphs["loop"])  # cyclic, no depth
    assert not build_basis(graphs["loop"], depth=4).exact
    assert not build_basis(graphs["mix"]).exact  # acyclic but infinite bundle
    assert build_basis(graphs["chain"], depth=2).exact
    assert not build_basis(graphs["chain"], depth=1).exact


def test_toeplitz_mode_checks_marks(graphs):
    t2 = graphs["t2"]
    with pytest.raises(FockError, match=r"marks \['nope'\] are not regular vertices"):
        build_basis(t2, "toeplitz", marks=["nope"])
    with pytest.raises(FockError):
        build_basis(graphs["edge"], "toeplitz", marks={"v"})  # v is a sink
    # valid marks leave the toeplitz basis whole and unmarked
    marked = build_basis(t2, "toeplitz", marks={"r", "c0"})
    assert basis_paths(marked) == basis_paths(build_basis(t2, "toeplitz"))
    assert marked.marks == frozenset()


def test_basis_cap_is_checked_before_each_level(monkeypatch):
    # 3 units, then 4 paths of length 1 and 3 of length 2: 10 in all; y has
    # 3 entering edges, so 3 times the level below overshoots each level and
    # the exact sum decides
    g = parse_graph("vertex x; vertex y; vertex z; edge e : x -> y * 3; edge f : y -> z")
    monkeypatch.setattr(fock, "MAX_BASIS", 10)
    assert build_basis(g).size == 10
    monkeypatch.setattr(fock, "MAX_BASIS", 9)
    with pytest.raises(CapError, match=r"^10 basis paths up to length 2, more than 9$"):
        build_basis(g)
    monkeypatch.setattr(fock, "MAX_BASIS", 6)
    with pytest.raises(CapError, match=r"^7 basis paths up to length 1, more than 6$"):
        build_basis(g)


def test_basis_of_graph_with_many_cycles():
    # K9 has far more than 10^4 simple cycles; asking whether it is
    # acyclic must not list them
    n = 9
    edges = [
        "edge e%d_%d : v%d -> v%d" % (i, j, i, j) for i in range(n) for j in range(n) if i != j
    ]
    g = parse_graph("; ".join(["vertex v%d" % i for i in range(n)] + edges))
    basis = build_basis(g, depth=1)
    assert not basis.exact
    assert len(basis_paths(basis)) == n + n * (n - 1)


def test_generators_on_edge(graphs):
    basis = build_basis(graphs["edge"])
    pmat, smat = generator_matrices(basis)
    idx = basis_index(basis)
    e = graphs["edge"].instance("e")
    unit_v = parse_path(graphs["edge"], "v")
    ep = parse_path(graphs["edge"], "e")
    assert smat[e].todict() == {(idx[ep], idx[unit_v]): Fraction(1)}
    assert pmat["u"].todict() == {
        (idx[parse_path(graphs["edge"], "u")],) * 2: Fraction(1),
        (idx[ep],) * 2: Fraction(1),
    }


def test_relations_exact_corpus(graphs):
    for name in EXACT:
        for mode in ("toeplitz", "ck"):
            basis = build_basis(graphs[name], mode)
            reports = verify_relations(basis)
            assert all_hold(reports), (name, mode, [str(r) for r in reports])
            names = [r.name for r in reports]
            assert ("marked vertices saturate" in names) == (mode == "ck")


def test_relations_truncated(graphs):
    for name, depth in (("loop", 5), ("o2", 4), ("oinf", 3), ("trans", 5)):
        basis = build_basis(graphs[name], depth=depth, omega_cap=3)
        assert all_hold(verify_relations(basis)), name
    for name in ("mix", "dd"):
        basis = build_basis(graphs[name], "ck", depth=4)
        assert basis.marks == frozenset()  # no regular vertices there
        assert all_hold(verify_relations(basis)), name
    trans_ck = build_basis(graphs["trans"], "ck", depth=5)
    assert trans_ck.marks == frozenset({"u"})
    assert all_hold(verify_relations(trans_ck))


def test_truncation_really_bites(graphs):
    # outside the interior columns the range identity must fail, so the
    # restriction in the checks is doing real work
    basis = build_basis(graphs["loop"], depth=4)
    pmat, smat = generator_matrices(basis)
    a = graphs["loop"].instance("a")
    assert not (smat[a].adjoint() @ smat[a] - pmat["u"]).is_zero()
    assert ((smat[a].adjoint() @ smat[a] - pmat["u"])
            .restrict_columns(basis.interior_columns())
            .is_zero())


def test_relation_report_str():
    assert str(RelationReport("x", True)) == "x: ok"
    assert str(RelationReport("x", False, "at u")) == "x: FAIL (at u)"


def test_dimensions(graphs):
    for name, (dim_ck, dim_to) in EXPECTED_DIMS.items():
        assert algebra_dimension(build_basis(graphs[name], "ck")) == dim_ck, name
        assert algebra_dimension(build_basis(graphs[name])) == dim_to, name


def test_dimension_needs_exact(graphs):
    with pytest.raises(FockError):
        algebra_dimension(build_basis(graphs["loop"], depth=3))
    with pytest.raises(FockError):
        algebra_dimension(build_basis(graphs["mix"]))


def test_rank_identity(graphs):
    # the two dimensions differ by the sum of squared path counts into
    # the regular vertices
    for name in EXACT:
        g = graphs[name]
        gap = algebra_dimension(build_basis(g)) - algebra_dimension(build_basis(g, "ck"))
        assert gap == sum(count_paths_into(g, u) ** 2 for u in g.regular_vertices), name


def test_partial_marks_formula(graphs):
    # dropping a mark adds that vertex's square back
    for name in EXACT:
        g = graphs[name]
        full = algebra_dimension(build_basis(g, "ck"))
        for u in sorted(g.regular_vertices):
            marks = g.regular_vertices - {u}
            got = algebra_dimension(build_basis(g, "ck", marks=marks))
            assert got == full + count_paths_into(g, u) ** 2, (name, u)


def test_mark_chain_monotone(graphs):
    rng = random.Random(6101)
    for name in EXACT:
        g = graphs[name]
        regs = sorted(g.regular_vertices)
        for _ in range(10):
            rng.shuffle(regs)
            cut1 = rng.randint(0, len(regs))
            cut2 = rng.randint(cut1, len(regs))
            dims = [
                algebra_dimension(build_basis(g, "ck", marks=frozenset(chunk)))
                for chunk in (regs[:cut2], regs[:cut1], [])
            ]
            assert dims[0] <= dims[1] <= dims[2], (name, dims)


def _random_subgraph(rng, g):
    verts = [v for v in g.vertices if rng.random() < 0.8]
    if not verts:
        verts = [sorted(g.vertices)[0]]
    vset = set(verts)
    bundles = []
    for b in g.bundles:
        if b.origin in vset and b.terminus in vset and rng.random() < 0.85:
            mult = b.multiplicity if rng.random() < 0.7 else rng.randint(1, b.multiplicity)
            bundles.append(type(b)(b.name, b.origin, b.terminus, mult))
    return Graph(sorted(vset), bundles, name=(g.name or "g") + ".part")


def test_subgraph_dimension_monotone(graphs):
    # a smaller graph with the marks it inherits embeds, so its
    # dimension cannot exceed the bigger one's
    rng = random.Random(6102)
    for name in EXACT:
        g = graphs[name]
        marks = g.regular_vertices
        for _ in range(15):
            mid = _random_subgraph(rng, g)
            small = _random_subgraph(rng, mid)
            mid_marks = induced_marks(mid, g, marks)
            small_marks = induced_marks(small, mid, mid_marks)
            d_small = algebra_dimension(build_basis(small, "ck", marks=small_marks))
            d_mid = algebra_dimension(build_basis(mid, "ck", marks=mid_marks))
            d_top = algebra_dimension(build_basis(g, "ck", marks=marks))
            assert d_small <= d_mid <= d_top, (name, d_small, d_mid, d_top)


def test_depth_consistency(graphs):
    for name in EXACT:
        g = graphs[name]
        free = build_basis(g)
        fixed = build_basis(g, depth=len(g.vertices))
        assert basis_paths(free) == basis_paths(fixed)
        assert algebra_dimension(free) == algebra_dimension(fixed)


def test_ck_on_cyclic_graph_collapses(graphs):
    # every path in a loop ends at the single regular vertex; marking it
    # empties the space, the degenerate zero representation
    basis = build_basis(graphs["o2"], "ck", depth=3)
    assert basis.size == 0
    assert all_hold(verify_relations(basis))


def test_adjoint_compatibility(graphs):
    basis = build_basis(graphs["t2"])
    _, smat = generator_matrices(basis)
    for e, s in smat.items():
        assert s.adjoint().adjoint() == s
        assert (s @ s.adjoint() @ s - s).is_zero()


def test_handmade_multiplicity_dimension():
    g = parse_graph("vertex u; vertex v; edge e : u -> v * 3")
    # paths into v: the unit and three instances, one full matrix algebra
    assert algebra_dimension(build_basis(g, "ck")) == 16
    assert algebra_dimension(build_basis(g)) == 17

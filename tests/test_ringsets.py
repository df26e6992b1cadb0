import random

import pytest

from graphck.graphs import parse_graph
from graphck.paths import parse_path
from graphck.ringsets import BasicSet, RingError, RingSet
from graphck.trees import FiberTree, FiniteTree
from helpers import cone_oracle, random_basic, random_tree_graph, ringset_extension


@pytest.fixture()
def T2(graphs):
    return FiniteTree(graphs["t2"])


def V(g, apex, *names):
    return BasicSet(apex, frozenset(g.instance(n) for n in names))


def test_basic_diff_child_cones(graphs, T2):
    g = graphs["t2"]
    a = RingSet.basic(T2, V(g, "r"))
    b = RingSet.basic(T2, V(g, "c0"))
    assert a.minus(b).blocks == (V(g, "r", "d0"),)
    assert b.minus(a).is_empty()
    assert a.intersect(b).blocks == (V(g, "c0"),)


def test_canonical_merge_to_full_cone(graphs, T2):
    g = graphs["t2"]
    merged = RingSet.of(T2, [V(g, "r", "d0", "d1"), V(g, "c0"), V(g, "c1")])
    assert merged.blocks == (V(g, "r"),)


def test_diff_against_excluded_cone(graphs, T2):
    g = graphs["t2"]
    a = RingSet.basic(T2, V(g, "r"))
    b = RingSet.basic(T2, V(g, "r", "d0", "d1"))
    d = a.minus(b)
    assert d.blocks == (V(g, "c0"), V(g, "c1"))
    assert b.minus(a).is_empty()


def test_meet_and_apart(graphs, T2):
    g = graphs["t2"]
    c0 = RingSet.basic(T2, V(g, "c0"))
    c1 = RingSet.basic(T2, V(g, "c1"))
    assert c0.intersect(c1).is_empty()
    assert c0.minus(c1).equals(c0)
    g00 = RingSet.basic(T2, V(g, "g00"))
    g01 = RingSet.basic(T2, V(g, "g01"))
    assert g00.intersect(g01).is_empty()
    assert g00.union(g01).blocks == (V(g, "g00"), V(g, "g01"))


def test_overlapping_blocks_rejected(graphs, T2):
    g = graphs["t2"]
    with pytest.raises(RingError):
        RingSet.of(T2, [V(g, "r"), V(g, "c0")])


def test_basic_contains(graphs, T2):
    g = graphs["t2"]

    def contains(b, c):
        return RingSet.of(T2, [b]).contains(RingSet.of(T2, [c]))

    assert contains(V(g, "r"), V(g, "c0"))
    assert contains(V(g, "r"), V(g, "r", "d0"))
    assert not contains(V(g, "r", "d0"), V(g, "r"))
    assert not contains(V(g, "r", "d0"), V(g, "c0"))
    assert contains(V(g, "r", "d0"), V(g, "c1"))
    assert not contains(V(g, "c0"), V(g, "c1"))


def test_ringset_queries(graphs, T2):
    g = graphs["t2"]
    # the excluded child cone folds back in when its full block joins the set
    assert RingSet.of(T2, [V(g, "c0", "e00"), V(g, "g00")]).blocks == (V(g, "c0"),)
    s = RingSet.of(T2, [V(g, "c0", "e00"), V(g, "g10")])
    assert s.has_vertex("c0")
    assert s.has_vertex("g01")
    assert s.has_vertex("g10")
    assert not s.has_vertex("g00")
    assert not s.has_vertex("r")
    assert s.contains(RingSet.basic(T2, V(g, "g01")))
    assert not s.contains(RingSet.basic(T2, V(g, "c0")))
    assert s.union(RingSet.basic(T2, V(g, "g10"))).equals(s)


def test_symmdiff_equality(graphs, T2):
    g = graphs["t2"]
    left = RingSet.of(T2, [V(g, "c0"), V(g, "c1")])
    right = RingSet.basic(T2, V(g, "r")).minus(RingSet.basic(T2, V(g, "r", "d0", "d1")))
    assert left.symmdiff(right).is_empty()
    assert left.equals(right)
    assert not left.equals(RingSet.basic(T2, V(g, "r")))


def test_kernel_member(graphs, T2):
    g = graphs["t2"]
    inner = {"r", "c0", "c1"}.__contains__
    s = RingSet.of(T2, [V(g, "c0", "e00", "e01")])
    assert s.kernel_member(inner)
    assert not RingSet.basic(T2, V(g, "c0", "e00")).kernel_member(inner)
    assert not RingSet.basic(T2, V(g, "g00")).kernel_member(inner)
    assert RingSet.empty(T2).kernel_member(inner)


def test_boundary_predicates(graphs, T2):
    g = graphs["t2"]
    none = RingSet.empty(T2)
    assert none.boundary_contains(none)
    interior = RingSet.of(T2, [V(g, "c0", "e00", "e01")])
    assert none.boundary_contains(interior)
    full = RingSet.basic(T2, V(g, "r"))
    assert not none.boundary_contains(full)
    assert full.boundary_contains(interior)
    assert not interior.boundary_contains(full)
    cut = full.minus(interior)
    assert cut.boundary_equal(full)


def test_mixed_trees_rejected(graphs, T2):
    g = graphs["t2"]
    other = FiniteTree(graphs["chain"])
    a = RingSet.basic(T2, V(g, "r"))
    b = RingSet.basic(other, BasicSet("u", frozenset()))
    with pytest.raises(RingError):
        a.intersect(b)


def test_validation_rejects_bad_blocks(graphs, T2):
    g = graphs["t2"]
    with pytest.raises(RingError):
        RingSet.basic(T2, BasicSet("zz", frozenset()))
    with pytest.raises(RingError):
        RingSet.basic(T2, BasicSet("r", frozenset([g.instance("e00")])))


def _oracle_check(g, tree, rs, expect):
    assert ringset_extension(g, rs) == expect
    # canonical invariant: blocks are pairwise disjoint
    seen = set()
    for b in rs.blocks:
        cone = cone_oracle(g, b.apex, b.excluded)
        assert not (cone & seen)
        seen |= cone


def test_oracle_equivalence_random_trees():
    rng = random.Random(2201)
    for _ in range(150):
        g = random_tree_graph(rng, rng.randint(2, 12))
        tree = FiniteTree(g)
        a = random_basic(rng, tree)
        b = random_basic(rng, tree)
        A = cone_oracle(g, a.apex, a.excluded)
        B = cone_oracle(g, b.apex, b.excluded)
        ra = RingSet.basic(tree, a)
        rb = RingSet.basic(tree, b)
        _oracle_check(g, tree, ra.intersect(rb), A & B)
        _oracle_check(g, tree, ra.minus(rb), A - B)
        _oracle_check(g, tree, ra.union(rb), A | B)
        _oracle_check(g, tree, ra.symmdiff(rb), A ^ B)
        assert ra.contains(rb) == (B <= A)
        assert ra.equals(rb) == (A == B)


def test_oracle_equivalence_compound():
    rng = random.Random(2202)
    for _ in range(60):
        g = random_tree_graph(rng, rng.randint(3, 10))
        tree = FiniteTree(g)
        parts = [random_basic(rng, tree) for _ in range(3)]
        sets = [RingSet.basic(tree, p) for p in parts]
        exts = [cone_oracle(g, p.apex, p.excluded) for p in parts]
        combo = sets[0].union(sets[1]).minus(sets[2])
        _oracle_check(g, tree, combo, (exts[0] | exts[1]) - exts[2])
        combo2 = sets[0].minus(sets[1]).symmdiff(sets[2])
        _oracle_check(g, tree, combo2, (exts[0] - exts[1]) ^ exts[2])


def test_fiber_chain_ops(graphs):
    g = graphs["chain"]
    fiber = FiberTree(g, "v")
    unit = fiber.unit
    abar = parse_path(g, "~a")
    b = parse_path(g, "b")
    top = RingSet.basic(fiber, BasicSet(abar, frozenset()))
    mid = RingSet.basic(fiber, BasicSet(unit, frozenset()))
    # walking up the covering edge from ~a reaches the unit, so V(~a) > V(unit)
    assert top.contains(mid)
    assert top.minus(mid).blocks == (BasicSet(abar, frozenset([g.instance("a")])),)
    assert mid.minus(top).is_empty()
    bot = RingSet.basic(fiber, BasicSet(b, frozenset()))
    assert mid.minus(bot).blocks == (BasicSet(unit, frozenset([g.instance("b")])),)
    # V(~a) minus V(unit) is the singleton {~a}, whose endpoint u is regular
    assert RingSet.empty(fiber).boundary_contains(top.minus(mid))
    assert mid.boundary_equal(top)


def test_fiber_loop_boundary(graphs):
    g = graphs["loop"]
    fiber = FiberTree(g, "u")
    a = g.instance("a")
    full = RingSet.basic(fiber, BasicSet(fiber.unit, frozenset()))
    stalled = RingSet.basic(fiber, BasicSet(fiber.unit, frozenset([a])))
    none = RingSet.empty(fiber)
    assert not none.boundary_contains(full)
    assert none.boundary_contains(stalled)
    assert full.minus(stalled).boundary_equal(full)


def test_fiber_o2_same_apex(graphs):
    g = graphs["o2"]
    fiber = FiberTree(g, "u")
    u = fiber.unit
    a, b = g.instance("a"), g.instance("b")
    va = RingSet.basic(fiber, BasicSet(u, frozenset([a])))
    vb = RingSet.basic(fiber, BasicSet(u, frozenset([b])))
    both = va.intersect(vb)
    assert both.blocks == (BasicSet(u, frozenset([a, b])),)
    diff = va.minus(vb)
    assert diff.blocks == (BasicSet(parse_path(g, "b"), frozenset()),)
    assert va.union(vb).blocks == (BasicSet(u, frozenset()),)


def test_fiber_omega_same_apex(graphs):
    g = graphs["oinf"]
    fiber = FiberTree(g, "u")
    u = fiber.unit
    a0, a1 = g.instance("a#0"), g.instance("a#1")
    s0 = RingSet.basic(fiber, BasicSet(u, frozenset([a0])))
    s1 = RingSet.basic(fiber, BasicSet(u, frozenset([a1])))
    assert s0.intersect(s1).blocks == (BasicSet(u, frozenset([a0, a1])),)
    d = s0.minus(s1)
    assert d.blocks == (BasicSet(parse_path(g, "a#1"), frozenset()),)
    # the lone missing subcone folds back in even at an omega vertex
    assert s0.union(s1).blocks == (BasicSet(u, frozenset()),)
    assert s0.symmdiff(s1).blocks == (
        BasicSet(parse_path(g, "a#0"), frozenset()),
        BasicSet(parse_path(g, "a#1"), frozenset()),
    )


def test_pushforward_relabel():
    g1 = parse_graph("vertex u\nvertex v\nvertex w\nedge e : u -> v\nedge f : u -> w")
    g2 = parse_graph("vertex x\nvertex y\nvertex z\nedge p : x -> y\nedge q : x -> z")
    t1, t2 = FiniteTree(g1), FiniteTree(g2)
    vmap = {"u": "x", "v": "y", "w": "z"}
    emap = {g1.instance("e"): g2.instance("p"), g1.instance("f"): g2.instance("q")}
    src = RingSet.of(t1, [BasicSet("u", frozenset([g1.instance("e")]))])
    out = src.pushforward(t2, vmap.get, emap.get)
    assert out.blocks == (BasicSet("x", frozenset([g2.instance("p")])),)

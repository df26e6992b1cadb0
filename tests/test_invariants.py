import random

import pytest

from graphck.cover import lift_invariant
from graphck.graphs import EdgeBundle, Graph
from graphck.invariants import (
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
    residue_part_of,
    tree_invariant_of,
)
from graphck.paths import Path, parse_path
from graphck.points import FinitePath
from graphck.ringsets import RingSet
from graphck.trees import FiberTree

from helpers import naive_invariants, random_graph

EXPECTED_COUNTS = {
    "edge": 2,
    "two": 4,
    "chain": 2,
    "par": 2,
    "t2": 16,
    "o2": 2,
    "oinf": 2,
    "loop": 2,
    "trans": 3,
    "mix": 6,
    "dd": 18,
}


def canon(inv):
    return (inv.vertices, inv.exclusions)


def test_make_normalizes():
    inv = Invariant.make(["v", "u"], {"u": []})
    assert inv.vertices == frozenset({"u", "v"})
    assert inv.exclusions == ()
    assert inv.f("u") == frozenset()
    stray = EdgeBundle("z", "w", "w", 1).instance(0)
    with pytest.raises(InvariantError):
        Invariant.make(["u"], {"w": [stray]})
    # empty sets at outsiders are vacuous and just dropped
    assert Invariant.make(["u"], {"w": []}).exclusions == ()


def test_clause_witnesses(graphs):
    g = graphs["mix"]
    e = g.instance("e")
    # an edge leaving the family
    res = is_invariant(g, Invariant.make({"u", "v"}))
    assert not res and any("leaves the family" in f for f in res.failures)
    # an excluded edge landing on a member with nothing excluded
    res = is_invariant(g, Invariant.make({"u", "v", "w"}, {"u": [e]}))
    assert not res and any("needs a nonempty exclusion" in f for f in res.failures)
    # finite-valence members exclude nothing
    c = graphs["chain"]
    res = is_invariant(c, Invariant.make({"u", "v", "w"}, {"u": [c.instance("a")]}))
    assert not res and any("finite valence" in f for f in res.failures)
    # saturation pulls a vertex in
    res = is_invariant(c, Invariant.make({"v", "w"}))
    assert not res and any("must join" in f for f in res.failures)
    # foreign exclusions are rejected before anything else
    res = is_invariant(g, Invariant.make({"u", "v"}, {"u": [c.instance("a")]}))
    assert not res and any("does not leave" in f for f in res.failures)


def test_enumerate_counts(graphs):
    for name, want in EXPECTED_COUNTS.items():
        env = enumerate_invariants(graphs[name])
        assert len(env) == want, name


def test_mix_exact_lattice(graphs):
    g = graphs["mix"]
    e = g.instance("e")
    got = {canon(i) for i in enumerate_invariants(g)}
    want = {
        canon(Invariant.make(set())),
        canon(Invariant.make({"v"})),
        canon(Invariant.make({"w"})),
        canon(Invariant.make({"v", "w"})),
        canon(Invariant.make({"u", "v"}, {"u": [e]})),
        canon(Invariant.make({"u", "v", "w"})),
    }
    assert got == want


def test_dd_chained_exclusions(graphs):
    g = graphs["dd"]
    env = enumerate_invariants(g)
    chained = Invariant.make({"u", "v", "x", "y"}, {"u": [g.instance("e")], "v": [g.instance("f")]})
    assert canon(chained) in {canon(i) for i in env}
    assert is_invariant(g, chained).ok
    assert any("infinite-valence member" in n for n in env.notes)


def test_top_and_bottom_always_present(graphs):
    for g in graphs.values():
        env = enumerate_invariants(g)
        cs = {canon(i) for i in env}
        assert canon(Invariant.make(set())) in cs
        assert canon(Invariant.make(set(g.vertices))) in cs
        bot = Invariant.make(set())
        top = Invariant.make(set(g.vertices))
        for inv in env:
            assert invariant_leq(bot, inv)
            assert invariant_leq(inv, top)


def test_order_axioms(graphs):
    for name in ("mix", "dd", "t2"):
        invs = list(enumerate_invariants(graphs[name]))
        for a in invs:
            assert invariant_leq(a, a)
            for b in invs:
                if invariant_leq(a, b) and invariant_leq(b, a):
                    assert a == b
                for c in invs:
                    if invariant_leq(a, b) and invariant_leq(b, c):
                        assert invariant_leq(a, c)


def test_hasse_edges_edge_graph(graphs):
    invs = list(enumerate_invariants(graphs["edge"]))
    assert hasse_edges(invs) == [(0, 1)]


def test_hasse_edges_skip_transitive(graphs):
    invs = list(enumerate_invariants(graphs["mix"]))
    edges = hasse_edges(invs)
    for i, j in edges:
        assert invariant_leq(invs[i], invs[j]) and invs[i] != invs[j]
        for m in range(len(invs)):
            if m in (i, j):
                continue
            assert not (invariant_leq(invs[i], invs[m]) and invariant_leq(invs[m], invs[j]))
    # every strict relation is a path of covers
    reach = {(i, j) for i, j in edges}
    changed = True
    while changed:
        changed = False
        for a, b in list(reach):
            for c, d in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    for i in range(len(invs)):
        for j in range(len(invs)):
            if i != j and invariant_leq(invs[i], invs[j]):
                assert (i, j) in reach


def test_brute_force_oracle_on_corpus(graphs):
    for name, g in graphs.items():
        want = naive_invariants(g)
        assert want is not None, name
        got = {canon(i) for i in enumerate_invariants(g)}
        assert got == want, name


def test_brute_force_oracle_on_random_graphs():
    rng = random.Random(4101)
    checked = 0
    while checked < 40:
        g = random_graph(rng, max_vertices=4, max_bundles=5)
        want = naive_invariants(g)
        if want is None:
            continue
        got = {canon(i) for i in enumerate_invariants(g)}
        assert got == want
        checked += 1


def test_open_set_roundtrip_on_corpus(graphs):
    for name, g in graphs.items():
        for inv in enumerate_invariants(g):
            lifted = lift_invariant(g, inv)
            for base in sorted(g.vertices):
                fib = FiberTree(g, base)
                w = open_set_of(fib, inv, depth=4)
                fam = tree_invariant_of(w, depth=1)
                for p, f in fam.items():
                    assert lifted.member(p), (name, inv, base, p)
                    assert f == lifted.f_set(p), (name, inv, base, p)
                for p in fib.directed_to_depth(1):
                    if lifted.member(p):
                        assert p in fam, (name, inv, base, p)
                assert family_open_set(fib, fam).boundary_equal(w), (name, inv, base)


def test_scan_is_closed_on_sampled_unions(graphs):
    rng = random.Random(4102)
    for name in ("chain", "o2", "mix", "loop", "t2"):
        g = graphs[name]
        for _ in range(25):
            base = rng.choice(sorted(g.vertices))
            fib = FiberTree(g, base)
            choices = fib.directed_to_depth(4)
            rs = RingSet.empty(fib)
            for _ in range(rng.randint(1, 3)):
                rs = rs.union(RingSet.basic(fib, rng.choice(choices)))
            fam = tree_invariant_of(rs, depth=1)
            inner = family_open_set(fib, fam)
            assert rs.boundary_contains(inner)
            # every scanned cone survives into the regenerated set, and
            # rescanning reproduces the same boundary set
            for p, f in fam.items():
                assert inner.boundary_contains(RingSet.basic(fib, p, f))
            fam2 = tree_invariant_of(inner, depth=1)
            assert family_open_set(fib, fam2).boundary_equal(inner)


def test_residue_part_mix(graphs):
    g = graphs["mix"]
    inv = Invariant.make({"u", "v"}, {"u": [g.instance("e")]})
    fib = FiberTree(g, "u")
    u_set = open_set_of(fib, inv, depth=4)
    p_set = residue_part_of(fib, inv, depth=4)
    assert u_set.boundary_contains(p_set)
    left = u_set.minus(p_set)
    # what is left of the open set is the lone end sitting at the emitter:
    # it avoids every onward direction but still touches the boundary
    assert not left.boundary_is_empty()
    assert left.has_vertex(Path.unit("u"))
    probe = RingSet.basic(fib, parse_path(g, "a#1"))
    assert left.intersect(probe).boundary_is_empty()
    probe_e = RingSet.basic(fib, parse_path(g, "e"))
    assert left.intersect(probe_e).boundary_is_empty()


def test_quotient_mix(graphs):
    g = graphs["mix"]
    inv = Invariant.make({"u", "v"}, {"u": [g.instance("e")]})
    q = quotient_data(g, inv)
    assert q.r_vertices == frozenset({"u"})
    assert tuple(q.graph.vertices) == ("u", "w")
    assert [b.name for b in q.graph.bundles] == ["e"]
    assert q.s_marks == frozenset({"u"})


def test_quotient_dd_chain(graphs):
    g = graphs["dd"]
    inv = Invariant.make(
        {"u", "v", "x", "y"}, {"u": [g.instance("e")], "v": [g.instance("f")]}
    )
    q = quotient_data(g, inv)
    assert q.r_vertices == frozenset({"u", "v"})
    assert tuple(q.graph.vertices) == ("u", "v", "w")
    assert sorted(b.name for b in q.graph.bundles) == ["e", "f"]
    assert q.s_marks == frozenset({"u", "v"})
    # the residue is a two-step chain
    assert q.graph.delta1("u").count == 1
    assert q.graph.delta1("v").count == 1
    assert q.graph.delta1("w").is_empty


def test_quotient_rejects_bad_family(graphs):
    g = graphs["mix"]
    with pytest.raises(InvariantError):
        quotient_data(g, Invariant.make({"u"}))


def test_quotient_marks_always_regular(graphs):
    for name, g in graphs.items():
        for inv in enumerate_invariants(g):
            q = quotient_data(g, inv)
            assert q.s_marks <= q.graph.regular_vertices
            assert q.r_vertices <= q.s_marks


def test_induced_marks_drop_partial_vertices(graphs):
    g = graphs["two"]
    sub = Graph(["u", "v"], [b for b in g.bundles if b.name == "e"], name="two.sub")
    assert induced_marks(sub, g, {"u"}) == frozenset()
    full = Graph(list(g.vertices), list(g.bundles), name="two.copy")
    assert induced_marks(full, g, {"u"}) == frozenset({"u"})


def test_induced_marks_checks_multiplicity(graphs):
    g = graphs["par"]
    half = Graph(["u", "v"], [EdgeBundle("e", "u", "v", 1)], name="par.half")
    # par has parallel edges under one name; keeping only one instance kills the mark
    if g.bundle("e").multiplicity == 2:
        assert induced_marks(half, g, {"u"}) == frozenset()


def test_induced_marks_composition_law(graphs):
    rng = random.Random(4103)
    for name, g in graphs.items():
        marks = sorted(g.regular_vertices)
        for _ in range(3):
            verts2 = [v for v in g.vertices if rng.random() < 0.8] or list(g.vertices)
            keep2 = set(verts2)
            bundles2 = [
                b for b in g.bundles
                if b.origin in keep2 and b.terminus in keep2 and rng.random() < 0.9
            ]
            g2 = Graph(verts2, bundles2, name=g.name + ".s2")
            verts1 = [v for v in verts2 if rng.random() < 0.8] or verts2
            keep1 = set(verts1)
            bundles1 = [
                b for b in bundles2
                if b.origin in keep1 and b.terminus in keep1 and rng.random() < 0.9
            ]
            g1 = Graph(verts1, bundles1, name=g.name + ".s1")
            direct = induced_marks(g1, g, marks)
            staged = induced_marks(g1, g2, induced_marks(g2, g, marks))
            assert direct == staged, name

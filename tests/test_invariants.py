import random
from collections import Counter

import pytest

from graphck import invariants
from graphck.cover import lift_invariant
from graphck.graphs import OMEGA, EdgeBundle, Graph, GraphError
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
    tree_invariant_of,
)
from graphck.paths import Path, parse_path
from graphck.ringsets import RingSet
from graphck.trees import FiberTree

from helpers import naive_invariants, oracle_check_family, random_breaking_graph, random_graph

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
                    # the graph's own instances, so cones share parse_path's letters
                    assert all(e is g.bundle(e.bundle.name).instance(e.index) for e in f), (name, p)
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
    # the full cones at the members that exclude nothing
    p_set = open_set_of(fib, Invariant.make(inv.vertices - inv.r_vertices), depth=4)
    assert u_set.boundary_contains(p_set)
    left = u_set.minus(p_set)
    # what is left of the open set is the lone end sitting at the emitter:
    # it avoids every onward direction but still touches the boundary
    none = RingSet.empty(fib)
    assert not none.boundary_contains(left)
    assert left.has_vertex(Path.unit("u"))
    probe = RingSet.basic(fib, parse_path(g, "a#1"))
    assert none.boundary_contains(left.intersect(probe))
    probe_e = RingSet.basic(fib, parse_path(g, "e"))
    assert none.boundary_contains(left.intersect(probe_e))


def test_quotient_mix(graphs):
    g = graphs["mix"]
    inv = Invariant.make({"u", "v"}, {"u": [g.instance("e")]})
    q = quotient_data(g, inv)
    assert inv.r_vertices == frozenset({"u"})
    assert tuple(q.graph.vertices) == ("u", "w")
    assert [b.name for b in q.graph.bundles] == ["e"]
    assert q.s_marks == frozenset({"u"})


def test_quotient_dd_chain(graphs):
    g = graphs["dd"]
    inv = Invariant.make(
        {"u", "v", "x", "y"}, {"u": [g.instance("e")], "v": [g.instance("f")]}
    )
    q = quotient_data(g, inv)
    assert inv.r_vertices == frozenset({"u", "v"})
    assert tuple(q.graph.vertices) == ("u", "v", "w")
    assert sorted(b.name for b in q.graph.bundles) == ["e", "f"]
    assert q.s_marks == frozenset({"u", "v"})
    # the residue is a two-step chain
    assert len(q.graph.out_instances("u")) == 1
    assert len(q.graph.out_instances("v")) == 1
    assert q.graph.out_bundles("w") == ()


def test_quotient_rejects_bad_family(graphs):
    g = graphs["mix"]
    with pytest.raises(InvariantError):
        quotient_data(g, Invariant.make({"u"}))


def test_quotient_marks_always_regular(graphs):
    rng = random.Random(4114)
    pool = list(graphs.values()) + [random_graph(rng) for _ in range(200)]
    pool += [random_breaking_graph(rng) for _ in range(200)]
    for g in pool:
        for inv in enumerate_invariants(g):
            q = quotient_data(g, inv)
            assert q.s_marks <= q.graph.regular_vertices, (g, inv)
            assert inv.r_vertices <= q.s_marks, (g, inv)


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


def _candidates(rng, g, count):
    """Random families, most of them inadmissible: any vertex set, with a
    few out-edges, omega ones included, or a stray edge excluded at members."""
    stray = EdgeBundle("zz", "zz", "zz").instance()
    for _ in range(count):
        nset = {v for v in g.vertices if rng.random() < 0.6}
        excl = {}
        for u in sorted(nset):
            if rng.random() < 0.5:
                pool = list(g.out_instances(u, 2)) + [stray]
                excl[u] = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        yield Invariant.make(nset, excl)


def _fresh(g):
    return Graph(g.vertices, g.bundles, name=g.name)


def test_check_family_matches_the_clause_by_clause_oracle(graphs):
    # every verdict, failure and note, in order, on graphs whose indexes the
    # check builds itself; each family is also asked without its exclusions
    rng = random.Random(4110)
    pool = list(graphs.values()) + [random_graph(rng) for _ in range(100)]
    seen = Counter()
    for g in pool:
        fresh = _fresh(g)
        families = list(enumerate_invariants(g)) + list(_candidates(rng, g, 30))
        for inv in families + [Invariant.make(inv.vertices) for inv in families]:
            want = oracle_check_family(g, inv)
            assert invariants.is_invariant(fresh, inv) == want, (g, inv)
            seen[bool(inv.exclusions), want.ok] += 1
        stray = Invariant.make(list(g.vertices[:1]) + ["nowhere"])
        for check in (oracle_check_family, invariants.is_invariant):
            with pytest.raises(GraphError, match="^unknown vertex 'nowhere'$"):
                check(fresh, stray)
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def _mutants(rng, g, inv):
    """The family with one excluded instance dropped, with one instance of a
    bundle into H added, with one r moved into H, and with one excluded
    instance swapped for one of a bundle into H."""
    r, fr = rng.choice(inv.exclusions)
    excl = dict(inv.exclusions)
    h = inv.vertices - inv.r_vertices
    into = rng.choice([b for b in g.out_bundles(r) if b.terminus in h])
    top = 4 if into.multiplicity is OMEGA else into.multiplicity
    dropped = fr - {rng.choice(sorted(fr, key=str))}
    added = into.instance(rng.randrange(top))
    yield Invariant.make(inv.vertices, {**excl, r: dropped})
    yield Invariant.make(inv.vertices, {**excl, r: fr | {added}})
    yield Invariant.make(inv.vertices, {**excl, r: ()})
    yield Invariant.make(inv.vertices, {**excl, r: dropped | {added}})


def test_families_with_exclusions_and_their_mutants_match_the_oracle():
    # every breaking vertex has an omega bundle into H, so each family has
    # all four mutants; each verdict, failure and note must be the oracle's
    rng = random.Random(4112)
    seen = Counter()
    for _ in range(60):
        g = random_breaking_graph(rng)
        fresh = _fresh(g)
        for inv in enumerate_invariants(g):
            if not inv.exclusions:
                continue
            for k, fam in enumerate([inv, *_mutants(rng, g, inv)]):
                want = oracle_check_family(g, fam)
                assert invariants.is_invariant(fresh, fam) == want, (g, fam)
                seen[k, want.ok, bool(want.notes)] += 1
    assert seen[0, False, False] == seen[0, False, True] == 0, seen
    assert seen[0, True, False] + seen[0, True, True] >= 500, seen
    assert min(seen[0, True, False], seen[0, True, True]) >= 200, seen
    # a mutant may be admissible: r joins H when its excluded edges land on r
    for k in (1, 2, 3, 4):
        assert seen[k, False, False] + seen[k, False, True] >= 400, (k, seen)


def test_quotient_graphs_match_the_checked_constructor(graphs):
    # the random graphs are large enough for set orders to depend on
    # insertion order, which sinks must keep: that of the vertices
    rng = random.Random(4111)
    pool = list(graphs.values()) + [random_graph(rng, 12, 16) for _ in range(60)]
    for g in pool:
        for inv in enumerate_invariants(g):
            q = quotient_data(g, inv).graph
            kept = [v for v in g.vertices if v not in inv.vertices or v in inv.r_vertices]
            bundles = [b for b in g.bundles if b.origin in kept and b.terminus in kept]
            slow = Graph(kept, bundles, name=q.name)
            # the vertex classes first, before any index is built
            assert tuple(q.regular_vertices) == tuple(slow.regular_vertices), (g, inv)
            old_sinks = frozenset(v for v in kept if not slow.out_bundles(v))
            assert tuple(q.sinks) == tuple(slow.sinks) == tuple(old_sinks), (g, inv)
            assert (q.vertices, q.bundles) == (tuple(kept), tuple(bundles)), (g, inv)
            for v in kept:
                assert q.out_bundles(v) == slow.out_bundles(v), (g, inv, v)
                assert q.in_bundles(v) == slow.in_bundles(v), (g, inv, v)
            for b in g.bundles:
                if b in bundles:
                    assert q.bundle(b.name) is slow.bundle(b.name) is b
                else:
                    for h in (q, slow):
                        with pytest.raises(GraphError, match="^unknown edge"):
                            h.bundle(b.name)


def test_quotient_still_rejects_after_enumeration(graphs):
    rng = random.Random(4108)
    for name, g in graphs.items():
        g = _fresh(g)
        bad = {}
        for inv in _candidates(rng, g, 40):
            res = is_invariant(_fresh(g), inv)
            if not res.ok:
                bad[inv] = "not an admissible family: %s" % res.failures[0]
        assert bad, name
        enumerate_invariants(g)
        for inv, message in bad.items():
            for _ in range(2):
                with pytest.raises(InvariantError) as info:
                    quotient_data(g, inv)
                assert str(info.value) == message, (name, inv)


def _refuse(*args):
    raise AssertionError("the enumeration checked a family")


def test_enumeration_calls_no_admissibility_check(graphs, monkeypatch):
    # each family is admissible by construction, so the enumeration runs no
    # check; the clause-by-clause oracle passes every family, and the notes
    # read off (H, R) are those the oracle gives
    rng = random.Random(4113)
    pool = list(graphs.values()) + [random_breaking_graph(rng) for _ in range(100)]
    seen = Counter()
    for g in pool:
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "is_invariant", _refuse)
            patch.setattr(invariants, "_check_h_r", _refuse)
            en = enumerate_invariants(g)
        notes = set()
        for inv in en:
            want = oracle_check_family(g, inv)
            assert want.ok, (g, inv)
            notes.update(want.notes)
            seen[bool(inv.exclusions), bool(want.notes)] += 1
        assert en.notes == tuple(sorted(notes)), g
    assert min(seen[True, False], seen[True, True]) >= 100, seen

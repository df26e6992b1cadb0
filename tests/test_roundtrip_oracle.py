"""Differential tests: the family <-> open-set roundtrip, whose open sets
RingSet.union_of builds in one pass and whose scan swallow_test answers
by one walk over the set, against the running union and the per-block
pieces kept in helpers (oracle_absorb_union, oracle_boundary_covers and
oracle_tree_invariant_of).  Blocks must agree in value, repr and order,
families in value and order."""

import itertools
import random

import pytest

from graphck import corpus
from graphck.graphs import PathError
from graphck.invariants import (
    enumerate_invariants,
    family_open_set,
    open_set_of,
    tree_invariant_of,
)
from graphck.paths import parse_path
from graphck.ringsets import BasicSet, RingSet, swallow_test
from graphck.setexpr import parse_setexpr
from graphck.trees import FiberTree, FiniteTree, TreeError
from helpers import (
    oracle_absorb_union,
    oracle_boundary_covers,
    oracle_tree_invariant_of,
    random_directed_path,
    random_graph,
    random_tree_graph,
    random_walk_path,
)


def _same_set(got, want, label):
    assert got.blocks == want.blocks, label
    assert repr(got) == repr(want), label


def _same_family(got, want, label):
    assert list(got.items()) == list(want.items()), label


def _roundtrip_agrees(tree, inv, depth, label):
    """open_set_of, tree_invariant_of and family_open_set against the
    oracles; the scan reads at depth at most 2, as its universe grows
    fast."""
    walks = tree.directed_to_depth(depth) if isinstance(tree, FiberTree) else tree.vertices
    blocks = [BasicSet(p, inv.f(u)) for p in walks if (u := tree.endpoint(p)) in inv.vertices]
    w = open_set_of(tree, inv, depth=depth)
    _same_set(w, oracle_absorb_union(tree, blocks), label)
    fam = tree_invariant_of(w, depth=min(depth, 2))
    _same_family(fam, oracle_tree_invariant_of(w, depth=min(depth, 2)), label)
    back = family_open_set(tree, fam)
    order = sorted(fam, key=tree.vkey)
    _same_set(back, oracle_absorb_union(tree, [BasicSet(p, fam[p]) for p in order]), label)
    covers = [oracle_boundary_covers(w, b) for b in back.blocks]
    covered = [oracle_boundary_covers(back, b) for b in w.blocks]
    assert back.boundary_equal(w) == (all(covers) and all(covered)), label
    swallows = swallow_test(w)
    assert [swallows(b.apex, b.excluded) for b in back.blocks] == covers, label


def test_corpus_roundtrips_match_oracles(graphs):
    # every corpus fiber base and every enumerated family, depths 0-4
    for name, g in graphs.items():
        for inv in enumerate_invariants(g):
            for base in g.vertices:
                fib = FiberTree(g, base)
                for depth in range(5):
                    _roundtrip_agrees(fib, inv, depth, (name, str(inv), base, depth))


def test_random_graph_roundtrips_match_oracles():
    # seeded random graphs, omega bundles included
    rng = random.Random(2901)
    omega = 0
    for k in range(150):
        g = random_graph(rng, max_vertices=5, max_bundles=7)
        omega += bool(g.infinite_emitters)
        families = enumerate_invariants(g).invariants
        for inv in rng.sample(families, min(4, len(families))):
            base = rng.choice(g.vertices)
            _roundtrip_agrees(FiberTree(g, base), inv, rng.randint(0, 3), (k, str(inv), base))
    assert omega >= 20


def test_finite_tree_roundtrips_match_oracles():
    # a finite tree's vertices take the running union and the pieces
    rng = random.Random(2902)
    for k in range(60):
        tree = FiniteTree(random_tree_graph(rng, rng.randint(1, 10)))
        for inv in enumerate_invariants(tree.graph):
            _roundtrip_agrees(tree, inv, 0, (k, str(inv)))


def _directed_blocks(rng, fib, n):
    out = []
    for _ in range(n):
        p = random_directed_path(rng, fib.graph, 3, fib.base)
        steps = list(fib.graph.out_instances(p.terminus, 2))
        out.append(BasicSet(p, frozenset(e for e in steps if rng.random() < 0.4)))
    return out


def test_union_of_matches_running_union():
    # seeded directed block lists, full child cones among them so that the
    # final absorb has work; shortest first for the one pass, in drawn
    # order (often not shortest first) for the running union
    rng = random.Random(2903)
    folds = 0
    for k in range(1500):
        g = corpus.load(corpus.GRAPH_NAMES[k % len(corpus.GRAPH_NAMES)])
        fib = FiberTree(g, rng.choice(g.vertices))
        blocks = _directed_blocks(rng, fib, rng.randint(0, 6))
        blocks += [BasicSet(fib.child(b.apex, e)) for b in blocks for e in b.excluded if rng.random() < 0.5]
        for order in (blocks, sorted(blocks, key=lambda b: len(b.apex))):
            got = RingSet.union_of(fib, order)
            _same_set(got, oracle_absorb_union(fib, order), (fib, order))
        folds += any(b not in blocks for b in got.blocks)
    assert folds >= 100


def _cone(rng, g, p) -> str:
    """V(p), or V(p; F) for a few out-edges F of p's end."""
    cut = [e for e in g.out_instances(p.terminus, 2) if rng.random() < 0.3]
    return "V(%s; %s)" % (p, ",".join(map(str, cut))) if cut else "V(%s)" % p


def test_scans_and_boundary_predicates_of_any_set_match_oracles():
    # unions of seeded cones, some with exclusions: with reversed letters
    # they take the pieces, directed ones the walk over the set
    rng = random.Random(2904)
    directed = 0
    for k in range(330):
        g = corpus.load(corpus.GRAPH_NAMES[k % len(corpus.GRAPH_NAMES)])
        base = rng.choice(g.vertices)
        fib = FiberTree(g, base)
        sets = []
        for _ in range(3):
            walk = random_directed_path if rng.random() < 0.5 else random_walk_path
            texts = [_cone(rng, g, walk(rng, g, 3, base)) for _ in range(rng.randint(1, 3))]
            sets.append(parse_setexpr(fib, " | ".join(texts)))
        for x in sets:
            directed += all(b.apex.is_directed for b in x.blocks)
            _same_family(tree_invariant_of(x, depth=1), oracle_tree_invariant_of(x, depth=1), x)
            for y in sets:
                want = all(oracle_boundary_covers(x, b) for b in y.blocks)
                assert x.boundary_contains(y) == want, (x, y)
    assert directed >= 300


def _omega_named_cones(g, base, named):
    """The cones V(p) and V(p; F) of a fiber whose walks p, of at most two
    letters either way, and excluded edges F, at most two, use a only at
    the named indices; other bundles are finite."""
    letters = ["a#%d" % i for i in named] + [b.name for b in g.bundles if b.name != "a"]
    letters += ["~" + x for x in letters]
    cones = []
    for n in range(3):
        for word in itertools.product(letters, repeat=n):
            try:
                p = parse_path(g, ".".join(word) or base)
            except PathError:
                continue
            if p.origin != base:
                continue
            steps = [e for b in g.out_bundles(p.terminus) if b.name != "a" for e in b.instances()]
            steps += [g.instance("a#%d" % i) for i in named if g.bundle("a").origin == p.terminus]
            for k in range(3):
                for cut in itertools.combinations(steps, k):
                    cones.append("V(%s; %s)" % (p, ",".join(map(str, cut))) if cut else "V(%s)" % p)
    return cones


def test_scans_of_sets_naming_few_omega_indices_match_the_oracle(graphs):
    # the depth 2 scan reads walks along a#0-a#2 and every apex of the set,
    # whose omega indices the set may not name: the candidates come from
    # the set alone, the oracle's from the set and each scanned walk
    rng = random.Random(3201)
    excluding = 0
    for name, base in (("oinf", "u"), ("mix", "u"), ("mix", "v"), ("mix", "w")):
        g = graphs[name]
        fib = FiberTree(g, base)
        for named in ((), (1,), (3,), (0, 2), (1, 4)):
            cones = _omega_named_cones(g, base, named)
            unions = [rng.sample(cones, min(len(cones), rng.randint(2, 3))) for _ in range(20)]
            exprs = cones + [" | ".join(u) for u in unions]
            for expr in exprs:
                w = parse_setexpr(fib, expr)
                fam = tree_invariant_of(w, depth=2)
                _same_family(fam, oracle_tree_invariant_of(w, depth=2), (name, base, expr))
                excluding += any(fam.values())
    assert excluding >= 300


def test_depths_and_omega_caps_out_of_range_raise(graphs):
    fib = FiberTree(graphs["oinf"], "u")
    finite = FiniteTree(graphs["t2"])
    inv = enumerate_invariants(graphs["oinf"]).invariants[-1]
    for call, message in (
        (lambda: fib.directed_to_depth(-3), "depth must be at least 0, got -3"),
        (lambda: fib.directed_to_depth(2, omega_cap=0), "omega cap must be at least 1, got 0"),
        (lambda: fib.directed_to_depth(2, omega_cap=-2), "omega cap must be at least 1, got -2"),
        (lambda: open_set_of(fib, inv, depth=-1), "depth must be at least 0, got -1"),
        (lambda: tree_invariant_of(RingSet.empty(fib), depth=-1), "depth must be at least 0, got -1"),
        (lambda: open_set_of(finite, inv, depth=-1), "depth must be at least 0, got -1"),
        (lambda: tree_invariant_of(RingSet.empty(finite), depth=-1), "depth must be at least 0, got -1"),
    ):
        with pytest.raises(TreeError, match=message):
            call()

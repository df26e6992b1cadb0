"""Differential tests: the cone-set calculus of graphck.ringsets, which reads
apex relations off root words and decides predicates by an F-set sweep,
against the walk-based calculus kept in helpers (oracle_classify,
oracle_basic_*, oracle_canonical and the predicates built on minus)."""

import random

import pytest

from graphck import corpus, ringsets
from graphck.invariants import (
    Invariant,
    enumerate_invariants,
    family_open_set,
    open_set_of,
    tree_invariant_of,
)
from graphck.paths import parse_path
from graphck.ringsets import (
    BasicSet,
    RingError,
    RingSet,
    basic_diff,
    basic_intersect,
)
from graphck.setexpr import parse_setexpr
from graphck.trees import FiberTree, FiniteTree
from helpers import (
    fiber_vertices,
    oracle_absorb,
    oracle_absorb_union,
    oracle_basic_contains,
    oracle_basic_diff,
    oracle_basic_intersect,
    oracle_boundary_contains,
    oracle_canonical,
    oracle_classify,
    oracle_contains,
    oracle_equals,
    oracle_has_vertex,
    oracle_intersect,
    oracle_minus,
    oracle_relation,
    oracle_symmdiff,
    oracle_union,
    random_graph,
    random_tree_graph,
    random_walk_path,
)

FIBER_SIZE = 40


def _relation_agrees(tree, u, v):
    tag = oracle_classify(tree, u, v)
    kind, first, last, k, low = tree.relation(u, v)
    assert (kind, first, last, k, low) == oracle_relation(tree, u, v), (tree, u, v)
    assert kind == tag[0], (tree, u, v)
    steps = tag[1]
    assert (first, last) == ((steps[0][0], steps[-1][0]) if steps else (None, None))
    a, b = tree.word(u), tree.word(v)
    assert a[:k] == b[:k] and (k == len(a) or k == len(b) or a[k] != b[k])
    want = {"equal": u, "below": v, "above": u, "apart": None}.get(kind)
    if kind == "meet":
        at = u
        for e, _ in steps[: tag[2]]:
            at = tree.child(at, e)
        want = at
    assert low == want, (tree, u, v)


def _basics(rng, tree, vertices, n):
    out = []
    for _ in range(n):
        apex = rng.choice(vertices)
        steps = list(tree.graph.out_instances(tree.endpoint(apex), 2))
        out.append(BasicSet(apex, frozenset(e for e in steps if rng.random() < 0.3)))
    return out


def _basic_ops_agree(tree, b, c):
    assert basic_intersect(tree, b, c) == oracle_basic_intersect(tree, b, c), (b, c)
    assert basic_diff(tree, b, c) == oracle_basic_diff(tree, b, c), (b, c)
    contained = RingSet.of(tree, [b]).contains(RingSet.of(tree, [c]))
    assert contained == oracle_basic_contains(tree, b, c), (b, c)


def _sets_agree(x, y):
    """Block lists of the four operations and every predicate."""
    assert x.minus(y).blocks == oracle_minus(x, y), (x, y)
    assert x.intersect(y).blocks == oracle_intersect(x, y), (x, y)
    assert x.union(y).blocks == oracle_union(x, y), (x, y)
    assert x.symmdiff(y).blocks == oracle_symmdiff(x, y), (x, y)
    # the union of the two differences, which symmdiff no longer takes
    assert x.symmdiff(y).blocks == x.minus(y).union(y.minus(x)).blocks, (x, y)
    assert x.contains(y) == oracle_contains(x, y), (x, y)
    assert y.contains(x) == oracle_contains(y, x), (x, y)
    assert x.equals(y) == oracle_equals(x, y), (x, y)
    assert x.boundary_contains(y) == oracle_boundary_contains(x, y), (x, y)
    assert y.boundary_contains(x) == oracle_boundary_contains(y, x), (x, y)
    assert x.boundary_equal(y) == (
        oracle_boundary_contains(x, y) and oracle_boundary_contains(y, x)
    )
    return x.equals(y), x.contains(y)


def _fiber_agrees(rng, tree, vertices, seen):
    for u in vertices:
        for v in vertices:
            _relation_agrees(tree, u, v)
    basics = _basics(rng, tree, vertices, 16)
    for b in basics:
        for c in basics:
            _basic_ops_agree(tree, b, c)
    sets = [RingSet.basic(tree, b) for b in basics]
    for _ in range(8):
        x, y, z = rng.sample(sets, 3)
        x = x.union(y).minus(z) if rng.random() < 0.5 else x.symmdiff(y).union(z)
        for v in vertices[:15]:
            assert x.has_vertex(v) == oracle_has_vertex(x, v)
        y = rng.choice(sets)
        for left, right in ((x, y), (x, x.union(y)), (x, x.minus(y).union(x.intersect(y)))):
            equal, contains = _sets_agree(left, right)
            seen[equal] += 1
            seen["contains", contains] += 1


def _assert_both_ways(seen):
    assert seen[True] > 20 and seen[False] > 20
    assert seen["contains", True] > 20 and seen["contains", False] > 20


def test_corpus_fibers(graphs):
    rng = random.Random(8100)
    seen = {True: 0, False: 0, ("contains", True): 0, ("contains", False): 0}
    for g in graphs.values():
        for base in g.vertices:
            tree = FiberTree(g, base)
            _fiber_agrees(rng, tree, fiber_vertices(tree, 3, 2), seen)
    _assert_both_ways(seen)


def test_random_fibers_and_trees():
    rng = random.Random(8200)
    seen = {True: 0, False: 0, ("contains", True): 0, ("contains", False): 0}
    compared = 0
    for _ in range(90):
        g = random_graph(rng, max_vertices=6, max_bundles=6)
        tree = FiberTree(g, rng.choice(g.vertices))
        vertices = fiber_vertices(tree, 3, 2)
        if len(vertices) > FIBER_SIZE:
            continue
        compared += 1
        _fiber_agrees(rng, tree, vertices, seen)
    for _ in range(40):
        tree = FiniteTree(random_tree_graph(rng, rng.randint(1, 12)))
        _fiber_agrees(rng, tree, list(tree.vertices), seen)
    assert compared >= 40
    _assert_both_ways(seen)


def _cone_text(rng, g, base):
    p = random_walk_path(rng, g, max_len=4, start=base)
    steps = list(g.out_instances(p.terminus, 2))
    cut = [e for e in steps if rng.random() < 0.3]
    return "V(%s; %s)" % (p, ",".join(map(str, cut))) if cut else "V(%s)" % p


def _expression(rng, g, base, atoms):
    if atoms == 1:
        return _cone_text(rng, g, base)
    left = rng.randint(1, atoms - 1)
    op = rng.choice("&|^-")
    return "(%s %s %s)" % (
        _expression(rng, g, base, left),
        op,
        _expression(rng, g, base, atoms - left),
    )


def _decompose(rng, tree, v, depth, out, seen):
    """Blocks built to fold: V(v) less some of its out-edges, and beside it
    the full cone, a further decomposition or nothing at each of their
    children; seen counts the children reached by cancelling."""
    cut = [e for e in tree.graph.out_instances(tree.endpoint(v), 2) if rng.random() < 0.6]
    if not cut or not depth:
        out.append(BasicSet(v))
        return
    out.append(BasicSet(v, frozenset(cut)))
    w = tree.word(v)
    for e in cut:
        kid = tree.child(v, e)
        if rng.random() < 0.8:
            seen["cancel"] += len(tree.word(kid)) < len(w)
            _decompose(rng, tree, kid, rng.randrange(depth), out, seen)


def _absorb_agrees(rng, tree, vertices, lists, seen):
    # apexes whose word ends in a reversed letter have a child by cancelling
    back = [v for v in vertices if tree.word(v) and not tree.word(v)[-1].forward]
    for _ in range(lists):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            pool = back if back and rng.random() < 0.5 else vertices
            _decompose(rng, tree, rng.choice(pool), 3, blocks, seen)
        blocks += _basics(rng, tree, vertices, rng.randrange(3))
        blocks += rng.sample(blocks, rng.randrange(2))  # the same block twice
        rng.shuffle(blocks)
        got = ringsets._absorb(tree, list(blocks))
        assert got == oracle_absorb(tree, list(blocks)), (tree, blocks)
        seen["lists"] += 1
        seen["folds"] += len(blocks) - len(got)


def test_absorb_matches_the_oracle(graphs):
    # the exact test on root words folds what building every candidate
    # child folded, in the same order
    rng = random.Random(8250)
    seen = {"lists": 0, "folds": 0, "cancel": 0}
    for g in graphs.values():
        for base in g.vertices:
            tree = FiberTree(g, base)
            _absorb_agrees(rng, tree, fiber_vertices(tree, 3, 2), 60, seen)
    tree = FiniteTree(random_tree_graph(rng, 12))
    _absorb_agrees(rng, tree, list(tree.vertices), 200, seen)
    assert seen["lists"] >= 2000 and seen["folds"] >= 500 and seen["cancel"] >= 200, seen


def test_random_set_expressions():
    rng = random.Random(8300)
    seen = {True: 0, False: 0}
    for i in range(250):
        g = corpus.load(corpus.GRAPH_NAMES[i % len(corpus.GRAPH_NAMES)])
        base = rng.choice(g.vertices)
        tree = FiberTree(g, base)
        x = parse_setexpr(tree, _expression(rng, g, base, rng.randint(1, 10)))
        y = parse_setexpr(tree, _expression(rng, g, base, rng.randint(1, 10)))
        equal, _ = _sets_agree(x, y)
        seen[equal] += 1
        # law pairs that are equal as sets but built along different routes
        for left, right in (
            (x.minus(y).union(x.intersect(y)), x),
            (x.union(y).minus(y), x.minus(y)),
        ):
            assert _sets_agree(left, right)[0]
    assert seen[False] > 60


def test_criterion_2_sets(graphs):
    # the open sets of the acceptance roundtrips, the regenerated sets and
    # every single block that tree_invariant_of asks about
    checked = 0
    for g in graphs.values():
        for inv in enumerate_invariants(g):
            for base in sorted(g.vertices):
                fib = FiberTree(g, base)
                w = open_set_of(fib, inv, depth=4)
                back = family_open_set(fib, tree_invariant_of(w, depth=1))
                _sets_agree(w, back)
                for p in fib.directed_to_depth(2, omega_cap=2):
                    for e in [None, *fib.graph.out_instances(p.terminus, 2)]:
                        block = RingSet(fib, (BasicSet(p, frozenset([e] if e else ())),))
                        assert w.boundary_contains(block) == oracle_boundary_contains(w, block)
                        assert w.contains(block) == oracle_contains(w, block)
                        checked += 1
    assert checked > 1000


def test_absorb_union_against_contains_then_union(graphs):
    # the open sets of every corpus family over every base, and the sets
    # regenerated from their scans, block for block
    for g in graphs.values():
        for inv in enumerate_invariants(g):
            for base in g.vertices:
                fib = FiberTree(g, base)
                walks = fib.directed_to_depth(4)
                blocks = [BasicSet(p, inv.f(p.terminus)) for p in walks if p.terminus in inv.vertices]
                w = open_set_of(fib, inv, depth=4)
                assert w.blocks == oracle_absorb_union(fib, blocks).blocks, (g, inv, base)
                fam = tree_invariant_of(w, depth=1)
                blocks = [BasicSet(p, fam[p]) for p in sorted(fam, key=fib.vkey)]
                back = family_open_set(fib, fam)
                assert back.blocks == oracle_absorb_union(fib, blocks).blocks, (g, inv, base)


def test_oracles_catch_overlapping_pieces(graphs, monkeypatch):
    # only RingSet.of sweeps, so the oracles check what operations build:
    # a basic_diff that repeats its first piece, through minus, union,
    # symmdiff and a finite tree's running union, and a coverage test that
    # keeps every block, through a fiber's one-pass union, give blocks that
    # differ from the oracles' (c0's cone holds g00's)
    g = graphs["chain"]
    fib = FiberTree(g, "u")
    cone, sub = RingSet.basic(fib, fib.unit), RingSet.basic(fib, parse_path(g, "a"))
    finite, t2 = FiniteTree(graphs["t2"]), FiberTree(graphs["t2"], "r")
    pair, triple = Invariant.make(["g00", "g10"]), Invariant.make(["c0", "g00", "g10"])
    cases = {
        "minus": (lambda: cone.minus(sub), oracle_minus(cone, sub)),
        "union": (lambda: sub.union(cone), oracle_union(sub, cone)),
        "symmdiff": (lambda: cone.symmdiff(sub), oracle_symmdiff(cone, sub)),
        "finite": (
            lambda: open_set_of(finite, pair, depth=4),
            oracle_absorb_union(
                finite, [BasicSet(v, pair.f(v)) for v in finite.vertices if v in pair.vertices]
            ).blocks,
        ),
        "fiber": (
            lambda: open_set_of(t2, triple, depth=4),
            oracle_absorb_union(
                t2,
                [
                    BasicSet(p, triple.f(p.terminus))
                    for p in t2.directed_to_depth(4)
                    if p.terminus in triple.vertices
                ],
            ).blocks,
        ),
    }
    for name, (call, want) in cases.items():
        assert call().blocks == want, name
    real = ringsets.basic_diff

    def repeating(tree, b, c):
        out = real(tree, b, c)
        return out[:1] + out

    monkeypatch.setattr(ringsets, "basic_diff", repeating)
    for name in ("minus", "union", "symmdiff", "finite"):
        call, want = cases[name]
        assert call().blocks != want, name
    monkeypatch.setattr(ringsets, "basic_diff", real)
    monkeypatch.setattr(ringsets, "_covered", lambda cuts, keys: False)
    call, want = cases["fiber"]
    assert call().blocks != want


def test_no_operation_sweeps_what_it_builds(graphs, monkeypatch):
    # only RingSet.of sweeps: with a sweep that raises, every operation,
    # both routes of union_of, the open sets and the scans run on corpus
    # fibers, on a finite tree and on sets with reversed letters
    rng = random.Random(8800)
    cases = []  # (tree, basic sets, families)
    for g in graphs.values():
        families = enumerate_invariants(g)
        for base in g.vertices:
            tree = FiberTree(g, base)
            cases.append((tree, _basics(rng, tree, fiber_vertices(tree, 2, 2), 6), families))
    finite = FiniteTree(graphs["t2"])
    t2_families = enumerate_invariants(graphs["t2"])
    cases.append((finite, _basics(rng, finite, list(finite.vertices), 6), t2_families))

    def sweep(tree, blocks):
        raise AssertionError("swept %s" % (blocks,))

    monkeypatch.setattr(ringsets, "_swept", sweep)
    seen = {"reversed": 0, "directed": 0, "running": 0, "finite": 0}
    for tree, basics, families in cases:
        sets = [RingSet.basic(tree, b) for b in basics]
        x = sets[0].union(sets[1]).union(sets[2])
        y = sets[3].symmdiff(sets[4]).union(sets[5])
        for w in (x, y, x.minus(y), x.intersect(y), x.symmdiff(y)):
            w.boundary_contains(x)
            x.boundary_contains(w)
            back = family_open_set(tree, tree_invariant_of(w, depth=1))
            seen["reversed"] += not all(s.forward for b in w.blocks for s in tree.word(b.apex))
            for blocks in (w.blocks, back.blocks, basics):
                route = "directed" if ringsets._directed(tree, blocks) else "running"
                seen[route] += 1
                RingSet.union_of(tree, blocks)
        for inv in families:
            open_set_of(tree, inv, depth=2)
        seen["finite"] += isinstance(tree, FiniteTree)
    assert min(seen.values()) > 0 and seen["reversed"] > 50, seen


def test_canonical_and_overlap_verdicts():
    # random block lists, many of them overlapping: the same blocks, or the
    # same error naming the same pair
    rng = random.Random(8400)
    raised = 0
    for i in range(1500):
        g = corpus.load(corpus.GRAPH_NAMES[i % len(corpus.GRAPH_NAMES)])
        tree = FiberTree(g, rng.choice(g.vertices))
        vertices = tree.directed_to_depth(3, omega_cap=2)
        blocks = _basics(rng, tree, vertices, rng.randint(0, 5))
        try:
            want = oracle_canonical(tree, blocks)
        except RingError as exc:
            raised += 1
            with pytest.raises(RingError) as got:
                RingSet.of(tree, blocks)
            assert str(got.value) == str(exc)
            continue
        assert RingSet.of(tree, blocks).blocks == want
    assert raised > 300


def test_hand_made_overlaps_rejected(graphs):
    g = graphs["t2"]
    tree = FiniteTree(g)

    def V(apex, *names):
        return BasicSet(apex, frozenset(g.instance(n) for n in names))

    cases = [
        [V("r"), V("c0")],
        [V("c0", "e00"), V("g01"), V("c1")],
        [V("r", "d0"), V("g10")],
        [V("c0"), V("c0", "e01")],
        [V("g00"), V("g00")],
    ]
    for blocks in cases:
        with pytest.raises(RingError, match="overlap"):
            RingSet.of(tree, blocks)
    fiber = FiberTree(graphs["chain"], "v")
    abar = BasicSet(parse_path(graphs["chain"], "~a"), frozenset())
    unit = BasicSet(fiber.unit, frozenset())
    for blocks in ([abar, unit], [unit, abar], [abar, abar]):
        with pytest.raises(RingError, match="overlap"):
            RingSet.of(fiber, blocks)


def _sweep_verdict(tree, blocks):
    """The overlap message of the check that sweeps every block list, two
    blocks included, or None when the sorted blocks are disjoint."""
    blocks = ringsets._sorted(tree, blocks)
    if any(n > 1 for n in ringsets._levels(tree, blocks)):
        for i, b in enumerate(blocks):
            for c in blocks[i + 1 :]:
                if basic_intersect(tree, b, c) is not None:
                    return "blocks %s and %s overlap" % (b, c)
    return None


def test_two_blocks_are_checked_as_the_sweep_checks_them(graphs):
    # every pair of basic sets drawn on corpus fibers: RingSet.of raises
    # exactly when the sweep finds an overlap, with the same text
    rng = random.Random(8700)
    verdicts = {True: 0, False: 0}
    for g in graphs.values():
        for base in g.vertices:
            tree = FiberTree(g, base)
            basics = _basics(rng, tree, fiber_vertices(tree, 3, 2), 12)
            for b in basics:
                for c in basics:
                    want = _sweep_verdict(tree, [b, c])
                    verdicts[want is None] += 1
                    if want is None:
                        RingSet.of(tree, [b, c])
                        continue
                    with pytest.raises(RingError) as got:
                        RingSet.of(tree, [b, c])
                    assert str(got.value) == want, (b, c)
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts

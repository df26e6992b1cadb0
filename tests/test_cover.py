import random

import pytest

from graphck.cover import (
    ArrowBlock,
    af_block_enumerate,
    compose_arrows,
    degree,
    directed_paths_upto,
    end_member,
    in_transversal,
    invert_arrow,
    lift_invariant,
    path_counts,
    point_in_boundary,
    standard_form,
    transversal_translate,
)
from graphck.graphs import CapError
from graphck.invariants import Invariant
from graphck.paths import Path, parse_path
from graphck.points import Lasso, PointError, act
from graphck.ringsets import RingSet
from graphck.structure import free_point_from
from graphck.trees import FiberTree

from helpers import act_on_ringset, random_graph, random_lasso, random_point, random_walk_path


def pt(g, text):
    return parse_path(g, text)


def test_cover_edges_chain(graphs):
    g = graphs["chain"]
    fib = FiberTree(g, "u")
    unit = Path.unit("u")
    edges = g.out_instances(fib.endpoint(unit))
    assert len(edges) == 1
    assert fib.child(unit, edges[0]) == parse_path(g, "a")
    assert g.out_instances(fib.endpoint(parse_path(g, "a.b"))) == ()
    # a backwards walk is continued by the edge it reverses, back to the unit
    fib_v = FiberTree(g, "v")
    back = parse_path(g, "~a")
    up = [fib_v.child(back, e) for e in g.out_instances(fib_v.endpoint(back))]
    assert up == [Path.unit("v")]


def test_cover_edges_need_cap_on_omega(graphs):
    g = graphs["oinf"]
    fib = FiberTree(g, "u")
    with pytest.raises(CapError):
        g.out_instances(fib.endpoint(Path.unit("u")))
    assert len(g.out_instances(fib.endpoint(Path.unit("u")), 4)) == 4


def test_standard_form_worked_example(graphs):
    g = graphs["chain"]
    sf = standard_form(parse_path(g, "a.b"), pt(g, "~b"))
    assert sf.beta1 == parse_path(g, "a")
    assert sf.beta2 == parse_path(g, "~b")
    assert sf.x == Path.unit("v")
    assert sf.degree == 0
    assert sf.alpha() == parse_path(g, "a.b")
    assert sf.point() == pt(g, "~b")


def test_standard_form_no_cancellation(graphs):
    g = graphs["chain"]
    sf = standard_form(parse_path(g, "a"), pt(g, "b"))
    assert sf.beta1 == parse_path(g, "a")
    assert len(sf.beta2) == 0
    assert sf.degree == 1


def test_standard_form_on_lasso_unrolls(graphs):
    g = graphs["loop"]
    x = Lasso.of(Path.unit("u"), parse_path(g, "a").word)
    alpha = parse_path(g, "~a.~a.~a")
    sf = standard_form(alpha, x)
    assert len(sf.beta1) == 0
    assert sf.beta2 == parse_path(g, "a.a.a")
    assert sf.x == x
    assert sf.degree == -3


def test_standard_form_random_properties(graphs):
    rng = random.Random(3201)
    for name in ("chain", "par", "o2", "oinf", "trans", "mix", "t2"):
        g = graphs[name]
        for _ in range(250):
            y = random_point(rng, g)
            alpha = random_walk_path(rng, g, start=y.origin).inverse()
            sf = standard_form(alpha, y)
            assert len(sf.beta1) + len(sf.beta2) == len(alpha)
            assert sf.alpha() == alpha
            assert sf.point() == y
            assert act(alpha, y) == act(sf.beta1, sf.x)
            assert sf.degree == len(sf.beta1) - len(sf.beta2)
            # maximality: beta1 does not cancel into x
            if sf.x.kind == "finite":
                joined = act(sf.beta1, sf.x)
                assert len(joined) == len(sf.beta1) + len(sf.x)
            # the factorization is idempotent
            again = standard_form(sf.alpha(), sf.point())
            assert again == sf


def test_degree_is_a_homomorphism(graphs):
    rng = random.Random(3202)
    for name in ("chain", "o2", "oinf", "trans", "mix"):
        g = graphs[name]
        for _ in range(250):
            y = random_point(rng, g)
            alpha = random_walk_path(rng, g, start=y.origin).inverse()
            beta = random_walk_path(rng, g, start=alpha.origin).inverse()
            lhs = degree(beta * alpha, y)
            rhs = degree(alpha, y) + degree(beta, act(alpha, y))
            assert lhs == rhs
            assert degree(Path.unit(y.origin), y) == 0
            assert degree(alpha.inverse(), act(alpha, y)) == -degree(alpha, y)


def test_arrow_groupoid_laws(graphs):
    rng = random.Random(3203)
    g = graphs["o2"]
    for _ in range(200):
        x = random_point(rng, g)
        a1 = random_walk_path(rng, g, start=x.origin).inverse()
        ar1 = (a1, x)
        a2 = random_walk_path(rng, g, start=a1.origin).inverse()
        ar2 = (a2, act(a1, x))
        a3 = random_walk_path(rng, g, start=a2.origin).inverse()
        ar3 = (a3, act(a2, act(a1, x)))
        left = compose_arrows(ar3, compose_arrows(ar2, ar1))
        right = compose_arrows(compose_arrows(ar3, ar2), ar1)
        assert left == right
        unit_arrow = compose_arrows(invert_arrow(ar1), ar1)
        assert unit_arrow == (Path.unit(x.origin), x)
    with pytest.raises(PointError):
        compose_arrows((Path.unit("u"), Path.unit("u")), (parse_path(g, "a"), pt(g, "b")))


def test_boundary_membership_with_marks(graphs):
    g = graphs["chain"]
    assert point_in_boundary(g, pt(g, "a.b"))  # ends at the sink
    assert point_in_boundary(g, pt(g, "a"), s=())  # v regular, unmarked
    assert not point_in_boundary(g, pt(g, "a"), s={"v"})
    with pytest.raises(PointError):
        point_in_boundary(g, pt(g, "a.b"), s={"w"})  # sink cannot be marked
    m = graphs["mix"]
    assert point_in_boundary(m, Path.unit("u"))  # infinite emitter


def test_transversal_membership(graphs):
    g = graphs["chain"]
    assert in_transversal(g, pt(g, "a.b"))
    assert not in_transversal(g, parse_path(g, "~b"))  # not directed
    o = graphs["oinf"]
    assert in_transversal(o, Lasso.of(Path.unit("u"), parse_path(o, "a#0").word))


def test_transversal_translate(graphs):
    g = graphs["chain"]
    x = Path("w", parse_path(g, "~b.~a").word)
    alpha, x2 = transversal_translate(g, x)
    assert alpha == parse_path(g, "~b.~a")
    assert x2 == Path.unit("u")
    assert in_transversal(g, x2)
    assert act(alpha, x2) == x
    # already transversal points translate trivially
    y = pt(g, "a.b")
    alpha, y2 = transversal_translate(g, y)
    assert alpha == Path.unit("u") and y2 == y


def test_transversal_translate_random(graphs):
    rng = random.Random(3204)
    for name in ("chain", "o2", "oinf", "trans", "mix", "t2"):
        g = graphs[name]
        for _ in range(150):
            x = random_point(rng, g)
            if not point_in_boundary(g, x):
                continue
            alpha, x2 = transversal_translate(g, x)
            assert in_transversal(g, x2)
            assert act(alpha, x2) == x


def test_end_member_loop(graphs):
    g = graphs["loop"]
    fib = FiberTree(g, "u")
    full = RingSet.basic(fib, Path.unit("u"))
    stalled = RingSet.basic(fib, Path.unit("u"), [g.instance("a")])
    x = Lasso.of(Path.unit("u"), parse_path(g, "a").word)
    assert end_member(full, x)
    assert not end_member(stalled, x)


def test_end_member_o2(graphs):
    g = graphs["o2"]
    fib = FiberTree(g, "u")
    below_a = RingSet.basic(fib, parse_path(g, "a"))
    x = Lasso.of(Path.unit("u"), parse_path(g, "a.b").word)
    y = Lasso.of(Path.unit("u"), parse_path(g, "b.a").word)
    assert end_member(below_a, x)
    assert not end_member(below_a, y)
    assert end_member(RingSet.basic(fib, Path.unit("u")), y)


def test_end_member_finite_points(graphs):
    g = graphs["mix"]
    fib = FiberTree(g, "u")
    full = RingSet.basic(fib, Path.unit("u"))
    cut = RingSet.basic(fib, Path.unit("u"), [g.instance("e")])
    assert end_member(full, pt(g, "e"))
    assert not end_member(cut, pt(g, "e"))
    assert end_member(cut, pt(g, "a#1"))
    assert end_member(cut, Path.unit("u"))  # the emitter's own point


def test_aperiodic_points_are_refused_in_one_line(graphs):
    g = graphs["o2"]
    x = free_point_from(g, "u")
    assert x.kind == "aperiodic"
    unit = Path.unit("u")
    for call in (
        lambda: standard_form(unit, x),
        lambda: degree(parse_path(g, "a"), x),
        lambda: transversal_translate(g, x),
        lambda: act(unit, x),
    ):
        with pytest.raises(PointError) as info:
            call()
        assert "\n" not in str(info.value)


def test_act_on_ringset_equivariance(graphs):
    rng = random.Random(3205)
    for name in ("o2", "trans", "loop", "chain"):
        g = graphs[name]
        for _ in range(80):
            x = random_point(rng, g)
            fib = FiberTree(g, x.origin)
            blocks = []
            for _ in range(rng.randint(1, 2)):
                apex = random_walk_path(rng, g, max_len=3, start=x.origin)
                blocks.append(RingSet.basic(fib, apex))
            rs = blocks[0]
            for b in blocks[1:]:
                rs = rs.union(b)
            alpha = random_walk_path(rng, g, start=x.origin).inverse()
            moved = act_on_ringset(alpha, rs)
            assert moved.tree == FiberTree(g, alpha.origin)
            assert end_member(rs, x) == end_member(moved, act(alpha, x))


def test_act_on_ringset_composes(graphs):
    g = graphs["o2"]
    fib = FiberTree(g, "u")
    rs = RingSet.basic(fib, parse_path(g, "a.b"))
    alpha = parse_path(g, "a")
    beta = parse_path(g, "b")
    both = act_on_ringset(beta * alpha, rs)
    step = act_on_ringset(beta, act_on_ringset(alpha, rs))
    assert both.equals(step)


def test_lifted_invariant_delegates_to_endpoints(graphs):
    g = graphs["mix"]
    inv = Invariant.make({"u", "v"}, {"u": [g.instance("e")]})
    lifted = lift_invariant(g, inv)
    assert lifted.member(parse_path(g, "a#2"))
    assert lifted.member(Path.unit("u"))
    assert not lifted.member(parse_path(g, "e"))
    assert lifted.f_set(Path.unit("u")) == frozenset([g.instance("e")])
    assert lifted.f_set(parse_path(g, "a#0")) == frozenset()
    with pytest.raises(PointError):
        lifted.f_set(parse_path(g, "e"))


def test_lifted_invariant_is_translation_stable(graphs):
    rng = random.Random(3206)
    g = graphs["trans"]
    inv = Invariant.make({"v"})
    lifted = lift_invariant(g, inv)
    for _ in range(100):
        p = random_walk_path(rng, g)
        gamma = random_walk_path(rng, g, start=p.origin).inverse()
        assert lifted.member(p) == lifted.member(gamma * p) or (gamma * p).terminus != p.terminus


def test_af_blocks_edge_graph(graphs):
    g = graphs["edge"]
    blocks = af_block_enumerate(g, g, 1)
    pairs = [(str(b.beta1), str(b.beta2)) for b in blocks]
    assert pairs == [("u", "u"), ("v", "v"), ("e", "e")]


def test_af_blocks_two_graph_diagonal(graphs):
    g = graphs["two"]
    blocks = af_block_enumerate(g, g, 1)
    assert all(b.beta1 == b.beta2 for b in blocks)
    assert len(blocks) == 5


def test_af_blocks_parallel_edges_give_offdiagonal(graphs):
    g = graphs["par"]
    blocks = af_block_enumerate(g, g, 1)
    offdiag = [b for b in blocks if b.beta1 != b.beta2]
    assert len(offdiag) == 2  # (e,f) and (f,e)
    assert {str(b.beta1) for b in offdiag} == {"e", "f"}


def test_af_blocks_monotone(graphs):
    from graphck.graphs import Graph

    g = graphs["two"]
    sub = Graph(["u", "v"], [b for b in g.bundles if b.name == "e"], name="two.sub")
    small = {(b.beta1, b.beta2) for b in af_block_enumerate(g, sub, 2)}
    mid = {(b.beta1, b.beta2) for b in af_block_enumerate(g, g, 1)}
    big = {(b.beta1, b.beta2) for b in af_block_enumerate(g, g, 2)}
    assert small <= big
    assert mid <= big


def test_af_block_ranges_disjoint(graphs):
    for name in ("par", "t2", "two", "chain"):
        g = graphs[name]
        blocks = af_block_enumerate(g, g, 2)
        by_group = {}
        for b in blocks:
            by_group.setdefault((len(b.beta1), b.terminus, b.beta2), []).append(b)
        for group in by_group.values():
            for i, b1 in enumerate(group):
                for b2 in group[i + 1:]:
                    r1 = act_on_ringset(b1.beta1, b1.region)
                    r2 = act_on_ringset(b2.beta1, b2.region)
                    if b1.beta1.origin == b2.beta1.origin:
                        assert r1.intersect(r2).is_empty()


def test_af_blocks_reject_foreign_subgraph(graphs):
    with pytest.raises(PointError):
        af_block_enumerate(graphs["two"], graphs["chain"], 1)


def test_path_counts_match_the_paths_by_length_and_terminus(graphs):
    # the table that sizes af_block_enumerate and directed_paths_upto before
    # they build a path; it ends at its first empty level
    rng = random.Random(3207)
    pool = list(graphs.values()) + [random_graph(rng) for _ in range(60)]
    for g in pool:
        for n in range(5):
            for cap in (1, 2, 3):
                built = {}
                for p in directed_paths_upto(g, g, n, cap):
                    built[len(p), p.terminus] = built.get((len(p), p.terminus), 0) + 1
                table = list(path_counts(g, n, cap))
                counts = {(k, t): c for k, level in enumerate(table) for t, c in level.items()}
                assert counts == built, (g, n, cap)
                assert len(table) == min(n + 1, 1 + max((k for k, _ in built), default=-1))
                pairs = sum(c * c for c in counts.values())
                if pairs <= 200:
                    blocks = af_block_enumerate(g, g, n, cap)
                    assert len(blocks) == pairs, (g, n, cap)
                    # built in order: by length, terminus and each path's sort key
                    keys = [
                        (len(b.beta1), b.terminus, b.beta1.sort_key(), b.beta2.sort_key())
                        for b in blocks
                    ]
                    assert keys == sorted(keys), (g, n, cap)

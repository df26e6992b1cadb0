"""Differential tests: the common-prefix relation and the out-degree
boundary test of graphck.trees against the per-tree versions kept in
helpers (oracle_relation, oracle_touches_boundary)."""

import itertools
import random

from graphck.paths import Path, directed_upto
from graphck.trees import FiberTree, FiniteTree
from helpers import (
    fiber_vertices,
    oracle_relation,
    oracle_touches_boundary,
    random_graph,
    random_tree_graph,
)

# all pairs of a fiber's vertices are compared, so branchy random fibers
# with more than this many vertices to depth 3 are skipped
FIBER_SIZE = 60


def _first_step_sets(tree, apex):
    steps = list(tree.graph.out_instances(tree.endpoint(apex), 2))
    for k in range(3):
        for excluded in itertools.combinations(steps, k):
            yield frozenset(excluded)


def _agree(tree, vertices):
    """Relations on every pair and boundary tests at every apex equal the
    oracle's; returns how many boundary tests came out each way."""
    for u in vertices:
        for v in vertices:
            assert tree.relation(u, v) == oracle_relation(tree, u, v), (tree, u, v)
    seen = {True: 0, False: 0}
    for apex in vertices:
        for excluded in _first_step_sets(tree, apex):
            got = tree.touches_boundary(apex, excluded)
            assert got == oracle_touches_boundary(tree, apex, excluded), (tree, apex, excluded)
            seen[got] += 1
    return seen


def test_finite_trees():
    rng = random.Random(5100)
    seen = {True: 0, False: 0}
    for _ in range(120):
        tree = FiniteTree(random_tree_graph(rng, rng.randint(1, 14)))
        for k, n in _agree(tree, tree.vertices).items():
            seen[k] += n
    assert seen[True] > 1000 and seen[False] > 100


def test_corpus_fibers(graphs):
    seen = {True: 0, False: 0}
    for g in graphs.values():
        for base in g.vertices:
            tree = FiberTree(g, base)
            for k, n in _agree(tree, fiber_vertices(tree, 3, 2)).items():
                seen[k] += n
    assert seen[True] > 500 and seen[False] > 50


def test_random_fibers():
    rng = random.Random(5200)
    seen = {True: 0, False: 0}
    compared = 0
    for _ in range(300):
        g = random_graph(rng, max_vertices=6, max_bundles=6)
        tree = FiberTree(g, rng.choice(g.vertices))
        vertices = fiber_vertices(tree, 3, 2)
        if len(vertices) > FIBER_SIZE:
            continue
        compared += 1
        for k, n in _agree(tree, vertices).items():
            seen[k] += n
    assert compared >= 200
    assert seen[True] > 1000 and seen[False] > 100


def test_every_vertex_reaches_the_boundary():
    # why touches_boundary needs no reachability: a forward walk in a finite
    # graph ends at a sink or revisits a vertex, which then lies on a cycle
    rng = random.Random(5300)
    for _ in range(300):
        g = random_graph(rng)
        reach = set(g.sinks | g.infinite_emitters | g.cycle_vertices)
        frontier = list(reach)
        while frontier:
            for b in g.in_bundles(frontier.pop()):
                if b.origin not in reach:
                    reach.add(b.origin)
                    frontier.append(b.origin)
        assert reach == set(g.vertices)


def test_directed_walks_are_built_once_per_fiber(graphs):
    # the kept tuple is a fresh directed_upto plus sort, every fiber has its own
    kept = {}
    for g in graphs.values():
        for base in g.vertices:
            tree = FiberTree(g, base)
            for depth in range(5):
                for cap in (1, 2, 3):
                    got = tree.directed_to_depth(depth, cap)
                    fresh = directed_upto(
                        [Path.unit(base)], lambda v: g.out_instances(v, cap), depth
                    )
                    assert got == tuple(sorted(fresh, key=tree.vkey)), (tree, depth, cap)
                    assert tree.directed_to_depth(depth, cap) is got
                    assert id(got) not in kept, (tree, kept.get(id(got)))
                    kept[id(got)] = (tree, depth, cap, got)
            assert FiberTree(g, base).directed_to_depth(2, 2) is not tree.directed_to_depth(2, 2)
    assert len(kept) == 15 * sum(len(g.vertices) for g in graphs.values())

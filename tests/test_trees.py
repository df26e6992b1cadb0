import itertools
import random
from collections import Counter

import pytest

from graphck import corpus
from graphck.graphs import GraphError, parse_graph
from graphck.paths import Path, parse_path
from graphck.trees import FiberTree, FiniteTree, TreeError
from helpers import fiber_vertices, oracle_scan_relation, random_tree_graph

FIBER_SIZE = 60  # walks per fiber whose pairs the cross-parse relation test compares


def t2(graphs):
    return FiniteTree(graphs["t2"])


def test_finite_tree_accepts_t2(graphs):
    tree = t2(graphs)
    assert set(tree.vertices) == {"r", "c0", "c1", "g00", "g01", "g10", "g11"}
    assert tree.graph.out_bundles("g00") == ()
    assert tree.graph.out_bundles("c0") != ()
    assert not tree.is_boundary_vertex("r")
    assert tree.is_boundary_vertex("g11")
    with pytest.raises(GraphError, match="unknown vertex 'nowhere'"):
        tree.is_boundary_vertex("nowhere")


@pytest.mark.parametrize(
    "text",
    [
        "vertex u\nvertex v\nedge e : u -> v * 2",
        "vertex u\nedge e : u -> u",  # wrong edge count
        "vertex u\nvertex v\nvertex w\nedge e : u -> v\nedge f : v -> u",  # disconnected
    ],
)
def test_finite_tree_rejects(text):
    with pytest.raises(TreeError):
        FiniteTree(parse_graph(text))


def test_finite_walk(graphs):
    tree = t2(graphs)
    g = graphs["t2"]
    d0 = g.instance("d0")
    e10 = g.instance("e10")
    assert tree.child("r", d0) == "c0"
    with pytest.raises(TreeError):
        tree.child("r", e10)


def test_fiber_vertices_and_children(graphs):
    g = graphs["chain"]
    fiber = FiberTree(g, "v")
    unit = fiber.unit
    abar = parse_path(g, "~a")
    b = parse_path(g, "b")
    # the covering edge from ~a goes back up to the unit walk
    assert fiber.child(abar, g.instance("a")) == unit
    assert fiber.child(unit, g.instance("b")) == b
    depth2 = fiber_vertices(fiber, 2)
    assert set(depth2) == {unit, abar, b}


def test_fiber_vertices_to_depth_counts(graphs):
    fiber = FiberTree(graphs["o2"], "u")
    # reduced signed walks over two loops: 4 one-letter, each extends 3 ways
    assert len(fiber_vertices(fiber, 0)) == 1
    assert len(fiber_vertices(fiber, 1)) == 5
    assert len(fiber_vertices(fiber, 2)) == 17


def test_fiber_omega_truncation(graphs):
    fiber = FiberTree(graphs["oinf"], "u")
    assert len(fiber_vertices(fiber, 1, omega_cap=2)) == 5
    assert fiber.endpoint(fiber.unit) in fiber.graph.infinite_emitters
    assert fiber.is_boundary_vertex(fiber.unit)


def test_vertices_on_cycles(graphs):
    assert graphs["loop"].cycle_vertices == {"u"}
    assert graphs["trans"].cycle_vertices == {"u"}
    assert graphs["chain"].cycle_vertices == frozenset()
    assert graphs["oinf"].cycle_vertices == {"u"}


def test_finite_touches_boundary(graphs):
    tree = t2(graphs)
    g = graphs["t2"]
    assert tree.touches_boundary("r")
    assert tree.touches_boundary("c0", frozenset([g.instance("e00")]))
    # cutting off both subtrees of c0 leaves the singleton {c0}, a regular vertex
    assert not tree.touches_boundary(
        "c0", frozenset([g.instance("e00"), g.instance("e01")])
    )
    assert tree.touches_boundary("g00")


def test_fiber_touches_boundary(graphs):
    loop = graphs["loop"]
    fiber = FiberTree(loop, "u")
    assert fiber.touches_boundary(fiber.unit)
    # excluding the only loop instance leaves the singleton {unit}
    assert not fiber.touches_boundary(fiber.unit, frozenset([loop.instance("a")]))
    trans = graphs["trans"]
    tf = FiberTree(trans, "u")
    # without the loop the cone still falls into the sink v
    assert tf.touches_boundary(tf.unit, frozenset([trans.instance("a")]))
    assert tf.touches_boundary(tf.unit, frozenset([trans.instance("e")]))
    oinf = FiberTree(graphs["oinf"], "u")
    # an omega apex is boundary no matter what is excluded
    assert oinf.touches_boundary(oinf.unit, frozenset([graphs["oinf"].instance("a#0")]))


def test_fiber_rejects_foreign_walks(graphs):
    g = graphs["chain"]
    fiber = FiberTree(g, "v")
    with pytest.raises(TreeError):
        fiber.check_vertex(Path.unit("u"))
    with pytest.raises(TreeError):
        fiber.validate_out_edge(fiber.unit, g.instance("a"))


def _rebuilt(g, p: Path) -> Path:
    """The walk p rebuilt letter for letter on g, another parse of its graph."""
    word = (g.bundle(s.edge.bundle.name).instance(s.edge.index).signed[s.forward] for s in p.word)
    return Path(p.origin, tuple(word))


def _spelled(rel):
    """A relation with its low walk spelled by the dataclass formula of its
    letters, so comparing two does not rest on SignedEdge.__eq__."""
    kind, first, last, k, low = rel
    if low is not None:
        low = (low.origin, [(s.edge, s.forward) for s in low.word])
    return kind, first, last, k, low


def test_relation_across_two_parses_matches_the_prefix_scan():
    # letters of equal graphs are equal though they are distinct objects: on
    # a fiber of one parse, walks up to depth 3 (reversed letters too) and
    # their copies on a second parse relate as the old prefix scan says
    rng = random.Random(3100)
    pairs = [(corpus.load(name), corpus.load(name)) for name in corpus.GRAPH_NAMES]
    for seed in (rng.random() for _ in range(12)):
        pairs.append(tuple(random_tree_graph(random.Random(seed), 6) for _ in range(2)))
    kinds = Counter()
    for g, again in pairs:
        for base in g.vertices:
            tree = FiberTree(g, base)
            walks = fiber_vertices(tree, 3, 2)[:FIBER_SIZE]
            copies = [_rebuilt(again, p) for p in walks]
            assert all(q.word[0] is not p.word[0] for p, q in zip(walks, copies) if p.word)
            for u, q in itertools.product(walks, copies):
                for x, y in ((u, q), (q, u)):
                    got = tree.relation(x, y)
                    assert _spelled(got) == _spelled(oracle_scan_relation(tree, x, y)), (tree, x, y)
                    kinds[got[0]] += 1
    assert min(kinds[k] for k in ("equal", "below", "above", "meet", "apart")) > 100, kinds

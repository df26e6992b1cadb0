import random

import pytest

from graphck.graphs import GraphError, parse_graph
from graphck.paths import Path, parse_path
from graphck.trees import FiberTree, FiniteTree, TreeError
from helpers import fiber_vertices, random_tree_graph


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
    d1 = g.instance("d1")
    e10 = g.instance("e10")
    assert tree.walk("r", "r") == ()
    assert tree.walk("r", "c0") == ((d0, True),)
    assert tree.walk("c0", "r") == ((d0, False),)
    assert tree.walk("c0", "g10") == ((d0, False), (d1, True), (e10, True))
    assert tree.child("r", d0) == "c0"
    with pytest.raises(TreeError):
        tree.child("r", e10)


def test_finite_walk_random_consistency():
    rng = random.Random(11)
    for _ in range(50):
        g = random_tree_graph(rng, rng.randint(2, 20))
        tree = FiniteTree(g)
        u, v = rng.choice(g.vertices), rng.choice(g.vertices)
        steps = tree.walk(u, v)
        at = u
        for e, fwd in steps:
            at = e.terminus if fwd else e.origin
        assert at == v
        # walk is reduced: no immediate backtracking
        for (e1, f1), (e2, f2) in zip(steps, steps[1:]):
            assert not (e1 == e2 and f1 != f2)


def test_fiber_vertices_and_children(graphs):
    g = graphs["chain"]
    fiber = FiberTree(g, "v")
    unit = fiber.unit
    abar = parse_path(g, "~a")
    b = parse_path(g, "b")
    # the covering edge from ~a goes back up to the unit walk
    assert fiber.child(abar, g.instance("a")) == unit
    assert fiber.child(unit, g.instance("b")) == b
    assert fiber.walk(abar, b) == ((g.instance("a"), True), (g.instance("b"), True))
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

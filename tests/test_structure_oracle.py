"""The structure module against its reference implementations.

The oracles in helpers.py are the walk-based census, the per-vertex
reachability flags, the recursive path count and the component scan for
a free point that the SCC-based code replaced; every answer, witnesses
and points included, must agree with them.
"""

import os
import random
import subprocess
import sys

import graphck
from graphck.graphs import EdgeBundle, Graph
from graphck.structure import (
    StructureError,
    count_paths_into,
    find_cycles,
    free_point_from,
    structure_report,
)

from helpers import (
    oracle_count_paths_into,
    oracle_find_cycles,
    oracle_free_point_from,
    oracle_structure_report,
    random_graph,
)


def _census(cycles):
    return [(str(c), c.kind, c.count) for c in cycles]


def _assert_matches_oracle(g, label):
    want = oracle_structure_report(g)
    got = structure_report(g)
    assert _census(got.cycles) == _census(want.cycles), label
    assert got.flags() == want.flags(), label
    assert got.witnesses == want.witnesses, label
    # a flag holds exactly when it has no witness
    for name, holds in got.flags().items():
        assert holds == (name not in got.witnesses), (label, name)
    for v in g.vertices:
        assert count_paths_into(g, v) == oracle_count_paths_into(g, v), (label, v)
        want = _free_point(oracle_free_point_from, g, v)
        assert _free_point(free_point_from, g, v) == want, (label, v)


def _free_point(find, g, v):
    # the point's repr on success, the message when every walk is periodic
    try:
        return repr(find(g, v))
    except StructureError as exc:
        return "raised: %s" % exc


def test_corpus_matches_oracle(graphs):
    for name, g in graphs.items():
        _assert_matches_oracle(g, name)


def test_random_graphs_match_oracle():
    rng = random.Random(5201)
    for k in range(1000):
        g = random_graph(rng, max_vertices=8, max_bundles=12)
        _assert_matches_oracle(g, k)


def test_dense_census_matches_oracle():
    rng = random.Random(5202)
    for k in range(40):
        g = random_graph(rng, max_vertices=6, max_bundles=24)
        assert _census(find_cycles(g)) == _census(oracle_find_cycles(g)), k


def _chain(n: int, closed: bool) -> Graph:
    vertices = ["v%d" % i for i in range(n)]
    bundles = [EdgeBundle("e%d" % i, vertices[i], vertices[i + 1]) for i in range(n - 1)]
    if closed:
        bundles.append(EdgeBundle("e%d" % (n - 1), vertices[-1], vertices[0]))
    return Graph(vertices, bundles)


def test_long_chain_and_ring_need_no_recursion():
    _long_chain_and_ring(2000)


def test_20000_vertex_chain_and_ring():
    _long_chain_and_ring(20000)


def _long_chain_and_ring(n: int):
    chain = _chain(n, closed=False)
    r = structure_report(chain)
    assert r.af and r.cofinal and not r.cycles
    assert [count_paths_into(chain, v) for v in chain.vertices] == list(range(1, n + 1))

    ring = _chain(n, closed=True)
    r = structure_report(ring)
    assert [(c.kind, len(c.instances), c.origin) for c in r.cycles] == [("terminal", n, "v0")]
    assert not r.essentially_free
    assert all(count_paths_into(ring, v) is graphck.OMEGA for v in ring.vertices)


def _run_under_hash_seed(seed: str, code: str, *argv: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphck.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _analyze_under_hash_seed(seed: str) -> str:
    code = "import sys; from graphck.cli import main; sys.exit(main(sys.argv[1:]))"
    return _run_under_hash_seed(seed, code, "analyze", "t2")


def test_cofinal_witness_ignores_hash_seed():
    first = _analyze_under_hash_seed("1")
    assert first == _analyze_under_hash_seed("6")
    assert "vertex c0 does not reach g10" in first


_FREE_POINT = """
from graphck.graphs import parse_graph
from graphck.structure import free_point_from
g = parse_graph("vertex u; vertex v; edge a : u -> v; edge b : v -> u; edge c : u -> u; edge d : v -> v")
x = free_point_from(g, "u")
print(x.alpha, x.cycle, x.ret)
"""


def test_free_point_ignores_hash_seed():
    # the branching vertex is the first of its component in g.vertices order
    first = _run_under_hash_seed("1", _FREE_POINT)
    assert first == _run_under_hash_seed("2", _FREE_POINT)
    assert first == "u (a, b) (c,)\n"


def _complete(n: int) -> str:
    lines = ["vertex v%d" % i for i in range(n)]
    lines += ["edge e%d_%d : v%d -> v%d" % (i, j, i, j) for i in range(n) for j in range(n) if i != j]
    return "\n".join(lines)


def _bare_ring(n: int, enter: bool, leave: bool) -> str:
    # declared out of order; bundle names run from the middle of the ring, so
    # the smallest vertex does not start the smallest step
    lines = ["vertex r%03d" % i for i in range(n)][::-1] + ["vertex src; vertex dst"]
    lines += ["edge s%03d : r%03d -> r%03d" % ((i + n // 2) % n, i, (i + 1) % n) for i in range(n)]
    if enter:
        lines.append("edge in : src -> r%03d" % (n // 3))
    if leave:
        lines.append("edge out : r%03d -> dst" % (2 * n // 3))
    return "\n".join(lines)


# (text, the kinds of its cycles) for the census shortcut: a terminal or
# transitory component is one cycle, walked without a search
CENSUS_CASES = {
    "terminal ring": (
        "vertex a; vertex b; vertex c\nedge x : a -> b; edge y : b -> c; edge z : c -> a",
        ["terminal"],
    ),
    "transitory ring": (
        "vertex a; vertex b; vertex c; vertex s\n"
        "edge x : a -> b; edge y : b -> c; edge z : c -> a; edge out : b -> s",
        ["transitory"],
    ),
    "ring with a doubled bundle": (
        "vertex a; vertex b; vertex c\nedge x : a -> b * 2; edge y : b -> c; edge z : c -> a",
        ["returning"],
    ),
    "omega self-loop": ("vertex u\nedge e : u -> u * omega", ["returning"]),
    "two bare rings at a hub": (
        "vertex h; vertex b1; vertex b2; vertex c1; vertex c2\n"
        "edge in_b : h -> b1; edge b12 : b1 -> b2; edge b21 : b2 -> b1; edge back_b : b2 -> h\n"
        "edge in_c : h -> c1; edge c12 : c1 -> c2; edge c21 : c2 -> c1; edge back_c : c2 -> h",
        ["returning"] * 4,
    ),
    **{"K%d" % n: (_complete(n), None) for n in range(3, 7)},
    "bare ring of 50 with an entry and an exit": (_bare_ring(50, True, True), ["transitory"]),
    "bare ring of 500 with an entry and an exit": (_bare_ring(500, True, True), ["transitory"]),
    "bare ring of 500 with an entry": (_bare_ring(500, True, False), ["terminal"]),
}


def test_census_shortcut_matches_oracle():
    for label, (text, kinds) in CENSUS_CASES.items():
        g = graphck.parse_graph(text)
        got = find_cycles(g)
        assert got == oracle_find_cycles(g), label
        if kinds is not None:
            assert [c.kind for c in got] == kinds, label
        if len(g.vertices) <= 60:  # the free-point oracle is quartic
            _assert_matches_oracle(g, label)
        else:
            for v in g.vertices:
                assert count_paths_into(g, v) == oracle_count_paths_into(g, v), (label, v)
    # K_n has sum over k >= 2 of C(n, k) (k - 1)! simple cycles
    assert len(find_cycles(graphck.parse_graph(_complete(6)))) == 409

import random

import pytest

from graphck.cover import degree, point_in_boundary
from graphck.graphs import OMEGA, parse_graph
from graphck.invariants import enumerate_invariants, quotient_data
from graphck.points import act
from graphck.structure import (
    StructureError,
    count_paths_into,
    find_cycles,
    free_point_from,
    isotropy,
    structure_report,
)

from helpers import random_graph, random_lasso

EXPECTED_FLAGS = {
    # af, locally_contractive, cofinal, ess_free, ess_principal, simple, pi_simple
    "edge": (1, 0, 1, 1, 1, 1, 0),
    "two": (1, 0, 0, 1, 1, 0, 0),
    "chain": (1, 0, 1, 1, 1, 1, 0),
    "par": (1, 0, 1, 1, 1, 1, 0),
    "t2": (1, 0, 0, 1, 1, 0, 0),
    "o2": (0, 1, 1, 1, 1, 1, 1),
    "oinf": (0, 1, 1, 1, 1, 1, 1),
    "loop": (0, 0, 1, 0, 0, 0, 0),
    "trans": (0, 0, 0, 1, 0, 0, 0),
    "mix": (1, 0, 0, 1, 1, 0, 0),
    "dd": (1, 0, 0, 1, 1, 0, 0),
}


def test_cycle_census(graphs):
    for name in ("edge", "two", "chain", "par", "t2", "mix", "dd"):
        assert find_cycles(graphs[name]) == ()
    loop = find_cycles(graphs["loop"])
    assert [(str(c), c.kind, c.count) for c in loop] == [("[a]", "terminal", 1)]
    o2 = find_cycles(graphs["o2"])
    assert [(str(c), c.kind) for c in o2] == [("[a]", "returning"), ("[b]", "returning")]
    # each step is the graph's own instance, whose letters parse_path uses
    assert all(c.instances[0] is graphs["o2"].instance(n) for c, n in zip(o2, "ab"))
    oinf = find_cycles(graphs["oinf"])
    assert [(str(c), c.kind, c.count) for c in oinf] == [("[a#0]", "returning", OMEGA)]
    trans = find_cycles(graphs["trans"])
    assert [c.kind for c in trans] == ["transitory"]


def test_longer_cycles_are_vertex_simple():
    g = parse_graph("vertex u; vertex v; edge a : u -> v; edge b : v -> u; edge c : u -> u")
    cycles = find_cycles(g)
    names = sorted(str(c) for c in cycles)
    assert names == ["[a.b]", "[c]"]
    assert all(c.kind == "returning" for c in cycles)


def test_parallel_cycle_count():
    g = parse_graph("vertex u; edge a : u -> u * 3")
    (c,) = find_cycles(g)
    assert c.count == 3
    assert c.kind == "returning"  # a parallel instance exits and returns


def test_cycle_cap():
    text = ["vertex v%d" % i for i in range(9)]
    for i in range(9):
        for j in range(9):
            if i != j:
                text.append("edge e%d_%d : v%d -> v%d" % (i, j, i, j))
    g = parse_graph("; ".join(text))
    with pytest.raises(StructureError):
        find_cycles(g, cap=50)


def test_flags_on_corpus(graphs):
    for name, flags in EXPECTED_FLAGS.items():
        r = structure_report(graphs[name])
        got = (
            r.af,
            r.locally_contractive,
            r.cofinal,
            r.essentially_free,
            r.essentially_principal,
            r.simple,
            r.purely_infinite_simple,
        )
        assert tuple(int(b) for b in got) == flags, name


def test_witnesses_name_the_problem(graphs):
    r = structure_report(graphs["loop"])
    assert "no exit" in r.witnesses["essentially_free"]
    r = structure_report(graphs["trans"])
    assert "returns" in r.witnesses["essentially_principal"]
    assert "does not reach" in r.witnesses["cofinal"]
    r = structure_report(graphs["edge"])
    assert r.witnesses["locally_contractive"] == "no cycles at all"


def test_af_against_topological_sort():
    rng = random.Random(5101)
    for _ in range(300):
        g = random_graph(rng, max_vertices=8, max_bundles=12)
        indeg = {v: 0 for v in g.vertices}
        for b in g.bundles:
            indeg[b.terminus] += 1
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        outs = {v: [b.terminus for b in g.out_bundles(v)] for v in g.vertices}
        indeg2 = dict(indeg)
        while queue:
            v = queue.pop()
            seen += 1
            for t in outs[v]:
                indeg2[t] -= 1
                if indeg2[t] == 0:
                    queue.append(t)
        acyclic = seen == len(g.vertices)
        assert structure_report(g).af == acyclic


def test_flag_implications_hold_everywhere():
    rng = random.Random(5102)
    for _ in range(1000):
        g = random_graph(rng, max_vertices=8, max_bundles=10)
        r = structure_report(g)
        if r.purely_infinite_simple:
            assert r.simple and r.locally_contractive
        if r.simple:
            assert r.cofinal and r.essentially_free
        if r.af:
            assert r.essentially_free and r.essentially_principal
        if r.essentially_principal:
            assert r.essentially_free
        if r.locally_contractive:
            assert not r.af


def test_terminal_quotients_detect_bad_cycles(graphs):
    # some family collapses the graph onto a cycle with no exit exactly
    # when the graph carries a terminal or transitory cycle
    for name, g in graphs.items():
        has_bad = any(c.kind in ("terminal", "transitory") for c in find_cycles(g))
        found = False
        for inv in enumerate_invariants(g):
            q = quotient_data(g, inv)
            if any(c.kind == "terminal" for c in find_cycles(q.graph)):
                found = True
                break
        assert found == has_bad, name


def test_isotropy_of_lassos(graphs):
    rng = random.Random(5103)
    for name in ("loop", "o2", "trans", "oinf"):
        g = graphs[name]
        for _ in range(60):
            x = random_lasso(rng, g)
            if x is None:
                continue
            kind, alpha = isotropy(x)
            assert kind == "nontrivial"
            assert act(alpha, x) == x
            assert degree(alpha, x) == len(x.cycle)


def test_isotropy_of_finite_points(graphs):
    g = graphs["chain"]
    kind, alpha = isotropy(free_point_from(g, "u"))
    assert kind == "trivial" and alpha is None


def test_free_points_on_corpus(graphs):
    for name, g in graphs.items():
        for u in sorted(g.vertices):
            if name == "loop":
                with pytest.raises(StructureError):
                    free_point_from(g, u)
                continue
            x = free_point_from(g, u)
            assert x.origin == u
            assert x.is_directed
            if x.kind == "finite":
                assert point_in_boundary(g, x)
            assert isotropy(x)[0] == "trivial"


def test_aperiodic_ray_has_no_short_period(graphs):
    x = free_point_from(graphs["o2"], "u")
    assert x.kind == "aperiodic"
    word = x.word_prefix(80)
    for p in range(1, 16):
        assert any(word[i] != word[i + p] for i in range(len(word) - p))


def test_free_point_needs_real_branching():
    # a two-vertex cycle with no exit anywhere
    g = parse_graph("vertex u; vertex v; edge a : u -> v; edge b : v -> u")
    with pytest.raises(StructureError):
        free_point_from(g, "u")


def test_count_paths_corpus(graphs):
    assert count_paths_into(graphs["chain"], "w") == 3
    assert count_paths_into(graphs["chain"], "v") == 2
    assert count_paths_into(graphs["chain"], "u") == 1
    assert count_paths_into(graphs["par"], "v") == 3
    assert count_paths_into(graphs["t2"], "r") == 1
    assert count_paths_into(graphs["loop"], "u") is OMEGA
    assert count_paths_into(graphs["mix"], "v") is OMEGA
    assert count_paths_into(graphs["mix"], "w") == 2
    assert count_paths_into(graphs["dd"], "w") == 3
    assert count_paths_into(graphs["dd"], "x") is OMEGA


def test_count_paths_multiplicities():
    g = parse_graph("vertex u; vertex v; vertex w; edge a : u -> v * 2; edge b : v -> w * 3")
    assert count_paths_into(g, "w") == 1 + 3 * (1 + 2)


def test_count_paths_by_enumeration():
    rng = random.Random(5104)
    checked = 0
    while checked < 60:
        g = random_graph(rng, max_vertices=5, max_bundles=6, allow_omega=False)
        r = structure_report(g)
        if not r.af:
            continue
        # count by walking the path tree
        target = rng.choice(sorted(g.vertices))
        total = 0
        frontier = [target]
        while frontier:
            total += len(frontier)
            nxt = []
            for v in frontier:
                for b in g.in_bundles(v):
                    nxt.extend([b.origin] * b.multiplicity)
            frontier = nxt
        assert count_paths_into(g, target) == total
        checked += 1


def test_toeplitz_report(graphs):
    g = graphs["chain"]
    # marking u or v kills a block of the compacts over the paths into it
    assert {u: count_paths_into(g, u) for u in ("u", "v")} == {"u": 1, "v": 2}

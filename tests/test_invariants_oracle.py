"""The family enumerator against its reference implementations.

The oracles in helpers.py are NextClosure over the closed sets, the
candidate scan over every vertex set that the enumerator replaced, the
brute force over arbitrary exclusion subsets, and the cubic cover
search; every closed set, family sequence, note and cover must agree
with them.
"""

import random

from graphck.graphs import EdgeBundle, Graph
from graphck.invariants import Invariant, _closed_sets, enumerate_invariants, hasse_edges
from graphck.structure import structure_report

from helpers import (
    naive_invariants,
    oracle_closed_sets,
    oracle_enumerate_invariants,
    oracle_hasse_edges,
    quadratic_hasse_edges,
    random_graph,
)


def _assert_matches_oracles(g, omega_f_bound, label):
    # the oracle probes omega exclusions up to the bound; none may add a family
    assert set(_closed_sets(g)) == set(oracle_closed_sets(g)), label
    got = enumerate_invariants(g)
    want = oracle_enumerate_invariants(g, omega_f_bound=omega_f_bound)
    assert got.invariants == want.invariants, label
    assert got.notes == want.notes, label
    assert want.flagged == (), label
    naive = naive_invariants(g)
    if naive is not None:
        brute = sorted((Invariant(n, f) for n, f in naive), key=Invariant.sort_key)
        assert list(got.invariants) == brute, label
    assert hasse_edges(got.invariants) == oracle_hasse_edges(got.invariants), label
    return naive is not None


def test_corpus_matches_oracles(graphs):
    for name, g in graphs.items():
        for bound in (0, 2):
            assert _assert_matches_oracles(g, bound, (name, bound)), name


def test_random_graphs_match_oracles():
    rng = random.Random(4104)
    brute = 0
    for k in range(1000):
        g = random_graph(rng, max_vertices=8, max_bundles=12)
        brute += _assert_matches_oracles(g, 2 if k % 4 == 0 else 0, k)
    assert brute >= 900


def _chain(n, close=False):
    vs = ["v%d" % i for i in range(n)]
    bs = [EdgeBundle("e%d" % i, vs[i], vs[i + 1]) for i in range(n - 1)]
    if close:
        bs.append(EdgeBundle("back", vs[-1], vs[0]))
    return Graph(vs, bs)


def test_enumeration_scales_with_its_output(graphs):
    # 2^200 candidate vertex sets, 2 families each
    assert len(enumerate_invariants(_chain(200))) == 2
    assert len(enumerate_invariants(_chain(200, close=True))) == 2
    # far past any recursion limit, and quadratic for a per-candidate closure
    for close in (False, True):
        g = _chain(10**4, close=close)
        assert len(enumerate_invariants(g)) == 2
        assert structure_report(g).cofinal
    two = graphs["two"]
    vs = ["%s%d" % (v, k) for k in range(6) for v in two.vertices]
    bs = [
        EdgeBundle("%s%d" % (b.name, k), "%s%d" % (b.origin, k), "%s%d" % (b.terminus, k))
        for k in range(6)
        for b in two.bundles
    ]
    assert len(enumerate_invariants(Graph(vs, bs))) == 4**6


# The covers of any list, also against the quadratic search that the bit
# columns replaced.


def _shuffled_sublists(rng, invs, count):
    """Lists drawn with replacement, so with repeats, in any order."""
    for _ in range(count):
        picks = [rng.choice(invs) for _ in range(rng.randint(0, len(invs) + 4))]
        rng.shuffle(picks)
        yield picks


def _assert_covers_match(invs, label):
    got = hasse_edges(invs)
    assert got == quadratic_hasse_edges(invs), label
    assert got == oracle_hasse_edges(invs), label


def test_covers_of_any_list_match_oracles(graphs):
    rng = random.Random(4105)
    pooled = []
    for name, g in graphs.items():
        invs = list(enumerate_invariants(g))
        pooled += invs
        for k, picks in enumerate(_shuffled_sublists(rng, invs, 20)):
            _assert_covers_match(picks, (name, k))
    # families of different graphs side by side: the columns need no graph
    for k, picks in enumerate(_shuffled_sublists(rng, pooled, 20)):
        _assert_covers_match(picks, ("pooled", k))
    for k in range(200):
        invs = list(enumerate_invariants(random_graph(rng, max_vertices=8, max_bundles=12)))
        for j, picks in enumerate(_shuffled_sublists(rng, invs, 3)):
            _assert_covers_match(picks, (k, j))


def _copies(g, k):
    vs = ["%s%d" % (v, i) for i in range(k) for v in g.vertices]
    bs = [
        EdgeBundle("%s%d" % (b.name, i), "%s%d" % (b.origin, i), "%s%d" % (b.terminus, i))
        for i in range(k)
        for b in g.bundles
    ]
    return Graph(vs, bs)


def test_covers_of_a_1024_family_lattice_match_the_quadratic_oracle(graphs):
    invs = list(enumerate_invariants(_copies(graphs["two"], 5)))
    assert len(invs) == 1024
    edges = hasse_edges(invs)
    # a product of five 4-element lattices, each with 4 covers
    assert len(edges) == 5 * 4 * 4**4
    assert edges == quadratic_hasse_edges(invs)
    random.Random(4106).shuffle(invs)
    assert hasse_edges(invs) == quadratic_hasse_edges(invs)

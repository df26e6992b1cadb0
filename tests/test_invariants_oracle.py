"""The family enumerator against its reference implementations.

The oracles in helpers.py are the candidate scan over every vertex set
that the closure-based enumerator replaced, the brute force over
arbitrary exclusion subsets, and the cubic cover search; every family
sequence, note and cover must agree with them.
"""

import random

from graphck.graphs import EdgeBundle, Graph
from graphck.invariants import Invariant, enumerate_invariants, hasse_edges

from helpers import (
    naive_invariants,
    oracle_enumerate_invariants,
    oracle_hasse_edges,
    random_graph,
)


def _assert_matches_oracles(g, omega_f_bound, label):
    # the oracle probes omega exclusions up to the bound; none may add a family
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
    two = graphs["two"]
    vs = ["%s%d" % (v, k) for k in range(6) for v in two.vertices]
    bs = [
        EdgeBundle("%s%d" % (b.name, k), "%s%d" % (b.origin, k), "%s%d" % (b.terminus, k))
        for k in range(6)
        for b in two.bundles
    ]
    assert len(enumerate_invariants(Graph(vs, bs))) == 4**6

"""Differential tests: the first-letter forest that graphck.fock.build_basis
builds level by level against the basis of whole words that the oracle
(helpers.oracle_build_basis) enumerates, filters and sorts, plus a scale
check on a long chain."""

import itertools
import random

import pytest

from graphck.fock import (
    FockError,
    algebra_dimension,
    all_hold,
    build_basis,
    generator_matrices,
    verify_relations,
)
from graphck.graphs import Graph, parse_graph
from graphck.paths import parse_path
from helpers import basis_from_paths, basis_paths, oracle_build_basis, random_graph

EXACT = ("edge", "two", "chain", "par", "t2")


def _forest(basis):
    return basis.origin, basis.length, basis.first, basis.tail


def _same(g, *args, **kw):
    """build_basis and the oracle agree on the paths, the forest, the
    interior and the generators."""
    got = build_basis(g, *args, **kw)
    want = oracle_build_basis(g, *args, **kw)
    assert basis_paths(got) == basis_paths(want)
    assert got.size == want.size == len(basis_paths(want))
    assert (got.mode, got.marks, got.depth, got.omega_cap, got.exact, got.edges) == (
        want.mode,
        want.marks,
        want.depth,
        want.omega_cap,
        want.exact,
        want.edges,
    )
    # basis_from_paths derives the very forest build_basis built
    assert _forest(got) == _forest(want)
    assert got.interior_columns() == want.interior_columns()
    assert generator_matrices(got) == generator_matrices(want)


def test_corpus_modes_depths_and_caps(graphs):
    for g in graphs.values():
        depths = [None] if not g.cycle_vertices else []
        for mode, depth, cap in itertools.product(
            ("toeplitz", "ck"), depths + list(range(7)), (1, 2, 3)
        ):
            _same(g, mode, depth=depth, omega_cap=cap)


def test_every_mark_subset(graphs):
    for name in EXACT:
        g = graphs[name]
        regular = sorted(g.regular_vertices)
        for k in range(len(regular) + 1):
            for marks in itertools.combinations(regular, k):
                _same(g, "ck", marks=frozenset(marks))


def test_random_graphs():
    for seed in range(400):
        rng = random.Random(8100 + seed)
        g = random_graph(rng, max_vertices=6, max_bundles=9)
        # declaration order apart from name order, so the build must sort
        g = Graph(rng.sample(g.vertices, len(g.vertices)), rng.sample(g.bundles, len(g.bundles)))
        regular = sorted(g.regular_vertices)
        marks = [u for u in regular if rng.random() < 0.5]
        depth = rng.randint(0, 3) if g.cycle_vertices else rng.choice([None, 0, 1, 2, 3])
        for mode in ("toeplitz", "ck"):
            _same(g, mode, marks=marks, depth=depth, omega_cap=rng.randint(1, 3))


def test_errors_match_the_oracle(graphs):
    bad = [
        ("edge", ("weird",), {}),
        ("edge", ("ck",), {"marks": {"v"}}),
        ("loop", (), {}),
        ("chain", (), {"depth": -1}),
        ("chain", (), {"omega_cap": 0}),
    ]
    for name, args, kw in bad:
        with pytest.raises(FockError) as got:
            build_basis(graphs[name], *args, **kw)
        with pytest.raises(FockError) as want:
            oracle_build_basis(graphs[name], *args, **kw)
        assert str(got.value) == str(want.value)


def test_basis_from_paths_rules(graphs):
    chain = graphs["chain"]
    p = {t: parse_path(chain, t) for t in ("u", "v", "a", "a.b")}
    # a.b's tail b is missing; the second "a" shadows the first
    basis = basis_from_paths(
        chain, "toeplitz", (), None, 3, [p["a"], p["v"], p["a.b"], p["a"], p["u"]], True
    )
    assert basis.first == [None, None, None, 0, None]
    assert basis.tail == [None, None, None, 1, None]
    P, S = generator_matrices(basis)
    assert P["u"] == frozenset({0, 2, 3, 4}) and P["v"] == frozenset({1})
    assert S[chain.instance("a")] == {1: 3} and S[chain.instance("b")] == {}


def test_chain_400_scale():
    n = 400
    text = "; ".join(
        ["vertex v%d" % i for i in range(n)]
        + ["edge e%d : v%d -> v%d" % (i, i, i + 1) for i in range(n - 1)]
    )
    basis = build_basis(parse_graph(text))
    assert basis.exact and basis.size == n * (n + 1) // 2 == 80200
    assert algebra_dimension(basis) == sum(k * k for k in range(1, n + 1)) == 21413400
    reports = verify_relations(basis)
    assert all_hold(reports) and all(r.checked == basis.size for r in reports)

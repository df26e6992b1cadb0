"""Differential tests: the index-set generators, relation checks and closed
form dimension of graphck.fock against the exact rational matrix versions
kept in helpers (oracle_generator_matrices, oracle_verify_relations,
oracle_algebra_dimension)."""

import itertools
import random

from graphck.fock import (
    algebra_dimension,
    build_basis,
    generator_matrices,
    verify_relations,
)
from graphck.graphs import Graph
from helpers import (
    basis_from_paths,
    basis_paths,
    oracle_algebra_dimension,
    oracle_generator_matrices,
    oracle_verify_relations,
    random_graph,
)

EXACT = ("edge", "two", "chain", "par", "t2")
TRUNCATED = ("loop", "o2", "oinf", "trans", "mix", "dd")

# the rational rank costs about n^3 for n basis paths; bigger random bases
# are left to the closed-form tests
ORACLE_SIZE = 80


def _verdicts(reports):
    return [(r.name, r.holds, r.witness) for r in reports]


def _agree(basis):
    """Relations, P and S equal the oracle's, entry for entry; returns the
    relation verdicts."""
    got = _verdicts(verify_relations(basis))
    assert got == _verdicts(oracle_verify_relations(basis))
    P, S = generator_matrices(basis)
    pmat, smat = oracle_generator_matrices(basis)
    assert list(P) == list(pmat) and list(S) == list(smat)
    for u, ix in P.items():
        assert {(i, i) for i in ix} == set(pmat[u].todict())
    for e, cols in S.items():
        assert {(j, i) for i, j in cols.items()} == set(smat[e].todict())
    return got


def test_corpus_both_modes(graphs):
    for name in EXACT:
        for mode in ("toeplitz", "ck"):
            basis = build_basis(graphs[name], mode)
            assert basis.exact
            _agree(basis)
            assert algebra_dimension(basis) == oracle_algebra_dimension(basis), (name, mode)


def test_corpus_depths_and_caps(graphs):
    for name in EXACT + TRUNCATED:
        g = graphs[name]
        for mode in ("toeplitz", "ck"):
            for depth in range(6):
                for cap in (1, 2, 3):
                    basis = build_basis(g, mode, depth=depth, omega_cap=cap)
                    _agree(basis)
                    if basis.exact:
                        assert algebra_dimension(basis) == oracle_algebra_dimension(basis)


def test_every_mark_subset(graphs):
    for name in EXACT:
        g = graphs[name]
        regular = sorted(g.regular_vertices)
        for k in range(len(regular) + 1):
            for marks in itertools.combinations(regular, k):
                basis = build_basis(g, "ck", marks=frozenset(marks))
                _agree(basis)
                assert algebra_dimension(basis) == oracle_algebra_dimension(basis), (
                    name,
                    marks,
                )


def test_random_graphs():
    graphs_checked = exact_checked = 0
    for seed in range(600):
        rng = random.Random(7400 + seed)
        g = random_graph(rng, max_vertices=6, max_bundles=8)
        checked = False
        for mode in ("toeplitz", "ck"):
            depth = rng.randint(0, 3) if g.cycle_vertices else None
            basis = build_basis(g, mode, depth=depth, omega_cap=rng.randint(1, 3))
            if basis.size > ORACLE_SIZE:
                continue
            _agree(basis)
            checked = True
            if basis.exact:
                exact_checked += 1
                assert algebra_dimension(basis) == oracle_algebra_dimension(basis), seed
        graphs_checked += checked
    assert graphs_checked >= 500 and exact_checked >= 200, (graphs_checked, exact_checked)


def _mangled(basis, rng):
    """The basis with paths dropped or repeated, exactness and marks
    reassigned at random: a representation that may break any relation."""
    g = basis.graph
    paths = [p for p in basis_paths(basis) if rng.random() < 0.85]
    paths += rng.sample(paths, min(len(paths), rng.randint(0, 2)))
    marks = frozenset(u for u in g.regular_vertices if rng.random() < 0.5)
    return basis_from_paths(
        g, basis.mode, marks, basis.depth, basis.omega_cap, tuple(paths), rng.random() < 0.5
    )


def test_failing_bases_give_the_oracle_witness(graphs):
    chain = graphs["chain"]
    # an "exact" basis holding truncated paths, with every mark
    short = build_basis(chain, depth=1)
    fake = basis_from_paths(
        chain, "ck", chain.regular_vertices, None, 3, basis_paths(short), exact=True
    )
    got = _agree(fake)
    assert [holds for _, holds, _ in got] == [True, True, False, True, True, False]
    assert got[2][2] == "a" and got[5][2] == "marked vertex u keeps a defect"

    # paths of a bigger graph: some start outside the projections
    sub = Graph(["u", "v"], [chain.bundle("a")], name="chain.sub")
    foreign = basis_from_paths(
        sub, "toeplitz", frozenset(), None, 3, basis_paths(short), exact=True
    )
    assert not _agree(foreign)[1][1]

    rng = random.Random(7501)
    failures = 0
    for seed in range(300):
        g = random_graph(random.Random(7600 + seed), max_vertices=5, max_bundles=7)
        depth = 3 if g.cycle_vertices else None
        basis = build_basis(g, depth=depth, omega_cap=2)
        if basis.size > ORACLE_SIZE:
            continue
        got = _agree(_mangled(basis, rng))
        failures += not all(holds for _, holds, _ in got)
    assert failures >= 100, failures

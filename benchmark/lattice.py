"""lattice: the `ideals` composition on freshly parsed graphs of 6-15 vertices.

Each query parses its graph and runs structure_report,
enumerate_invariants, hasse_edges and quotient_data for every family,
so the invariants module does nearly all the work.  Family-poor inputs
(chains, rings, doubled ladders: 2 or 4 families out of 2^|V|
candidates) expose wasted candidates in the enumeration; family-rich
ones (binary trees, unions of corpus graphs: tens to hundreds of
families) expose the cubic cover computation.
"""

from __future__ import annotations

import itertools

import reference as ref
from common import cli_json
from gen import (
    CORPUS_NAMES,
    Spec,
    btree,
    chain,
    corpus_text,
    disjoint_union,
    doubled_ladder,
    interleave,
    random_small,
    ring,
)

PASS = 100
CHAIN_SIZES = (6, 7, 8, 9, 10, 11, 12, 12, 12, 12, 13, 14)
LADDER_SIZES = (3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6, 7)
SMALL_SEARCH_LIMIT = 2**14


def _unions() -> list[tuple[str, ...]]:
    """Corpus multisets of 2-4 graphs with 6-12 vertices and 20-150 families,
    cheapest first by the cost of candidate scanning plus cover finding."""
    exp = ref.expected()
    size = {n: len(ref.RefGraph(corpus_text(n)).vertices) for n in CORPUS_NAMES}
    out = []
    for k in (2, 3, 4):
        for names in itertools.combinations_with_replacement(CORPUS_NAMES, k):
            verts = sum(size[n] for n in names)
            fams = 1
            for n in names:
                fams *= exp[n]["invariants"]
            if 6 <= verts <= 12 and 20 <= fams <= 150:
                out.append((2**verts * verts + fams**3 / 100, names))
    return [names for _, names in sorted(out)]


def generate(rng) -> list[Spec]:
    unions = _unions()

    def poor(family, make, sizes):
        def spec(q, k, rng):
            n = sizes[k % len(sizes)]
            return Spec(family, "%s-%d" % (family, n), make(n), (n,))

        return spec

    def btree_spec(q, k, rng):
        d = 2 + k % 2
        return Spec("btree", "btree-%d" % d, btree(d), (d,))

    def union_spec(q, k, rng):
        # q picks the cost, the seed one of the unions of about that cost
        at = int(len(unions) * q)
        names = unions[rng.randint(max(0, at - 1), min(len(unions) - 1, at + 1))]
        return Spec("union", "union-" + "+".join(names), disjoint_union(names), names)

    def small_spec(q, k, rng):
        n = 3 + int(6 * q)
        while True:
            seed = rng.randrange(2**31)
            text = random_small(seed, n)
            if ref.family_search_size(ref.RefGraph(text)) <= SMALL_SEARCH_LIMIT:
                return Spec("small", "small-%d/%d" % (n, seed), text, (seed,))

    def cli_spec(q, k, rng):
        name = CORPUS_NAMES[int(len(CORPUS_NAMES) * q)]
        return Spec("cli", "cli-ideals-%s" % name, name)

    # Counts per pass of PASS queries.  The sizes put 13 queries of about
    # the same cost (chain-12, ring-12, ladder-6) around the 90th
    # percentile and 6 heavier ones above it, so that percentile sits
    # inside a cluster instead of in the gap between two sizes.
    classes = [
        (12, poor("chain", chain, CHAIN_SIZES)),
        (12, poor("ring", ring, CHAIN_SIZES)),
        (12, poor("ladder", doubled_ladder, LADDER_SIZES)),
        (2, btree_spec),
        (12, union_spec),
        (28, small_spec),
        (22, cli_spec),
    ]
    return interleave(classes, PASS, rng)


def prepare(gc, specs):
    return None


def reference(spec: Spec) -> dict:
    exp = ref.expected()
    text = corpus_text(spec.text) if spec.kind == "cli" else spec.text
    g = ref.RefGraph(text)
    fams = None
    if spec.kind in ("chain", "ring"):
        lattice = (2, 1)
        faithful = spec.kind == "chain"
    elif spec.kind == "ladder":
        lattice, faithful = (4, 4), exp["two"]["lattice_faithful"]
    elif spec.kind == "btree":
        lattice, faithful = ref.btree_lattice(spec.params[0]), exp["t2"]["lattice_faithful"]
    elif spec.kind == "union":
        lattice = ref.union_lattice([ref.corpus_lattice(n) for n in spec.params])
        faithful = all(exp[n]["lattice_faithful"] for n in spec.params)
    elif spec.kind == "cli":
        lattice, faithful = ref.corpus_lattice(spec.text), exp[spec.text]["lattice_faithful"]
        fams = ref.families(g)
    else:
        fams = ref.families(g)
        lattice = (len(fams), ref.covers(fams))
        faithful = ref.flags(g)["essentially_principal"]
    return {
        "families": lattice[0],
        "covers": lattice[1],
        "faithful": faithful,
        "family_set": fams,
        "vertices": frozenset(g.vertices),
        "regular": frozenset(g.regular()),
    }


def run(gc, tr, spec: Spec, state):
    if spec.kind == "cli":
        return cli_json(gc, tr, ["ideals", spec.text])
    g = tr.call("graphs.parse_graph", gc.parse_graph, spec.text)
    rep = tr.call("structure.structure_report", gc.structure_report, g)
    en = tr.call("invariants.enumerate_invariants", gc.enumerate_invariants, g)
    order = tr.call("invariants.hasse_edges", gc.hasse_edges, en.invariants)
    quotients = [tr.call("invariants.quotient_data", gc.quotient_data, g, inv) for inv in en]
    return rep.essentially_principal, en.invariants, order, quotients


def _answer(spec: Spec, answer) -> dict:
    """(faithful, covers, [(N, F, residue vertices, residue marks)]) in plain terms."""
    if spec.kind == "cli":
        rc, data = answer
        fams = [
            (
                frozenset(f["vertices"]),
                frozenset((u, frozenset(es)) for u, es in f["exclusions"].items() if es),
                frozenset(f["residue_vertices"]),
                frozenset(f["residue_marks"]),
            )
            for f in data["families"]
        ]
        return {"rc": rc, "faithful": data["order_faithful"], "covers": len(data["hasse"]), "fams": fams}
    faithful, invs, order, quotients = answer
    fams = [
        (
            inv.vertices,
            frozenset((u, frozenset(str(e) for e in es)) for u, es in inv.exclusions),
            frozenset(qd.graph.vertices),
            qd.s_marks,
        )
        for inv, qd in zip(invs, quotients)
    ]
    return {"rc": 0, "faithful": faithful, "covers": len(order), "fams": fams}


def check(spec: Spec, answer, want: dict) -> str | None:
    got = _answer(spec, answer)
    if got["rc"] != 0:
        return "exit code %d" % got["rc"]
    if len(got["fams"]) != want["families"]:
        return "%d families, want %d" % (len(got["fams"]), want["families"])
    if got["covers"] != want["covers"]:
        return "%d covers, want %d" % (got["covers"], want["covers"])
    if got["faithful"] != want["faithful"]:
        return "order faithful %s, want %s" % (got["faithful"], want["faithful"])
    if want["family_set"] is not None:
        found = {(n, f) for n, f, _, _ in got["fams"]}
        if found != want["family_set"]:
            return "family set differs from brute force in %d places" % len(found ^ want["family_set"])
    for n, f, residue, marks in got["fams"]:
        r = frozenset(u for u, _ in f)
        if residue != (want["vertices"] - n) | r:
            return "residue of %s is %s" % (sorted(n), sorted(residue))
        if marks != r | (want["regular"] - n):
            return "residue marks of %s are %s" % (sorted(n), sorted(marks))
    return None


def tally(tr, spec: Spec, answer, want: dict) -> None:
    tr.add("invariants.families", want["families"])
    tr.add("invariants.covers", want["covers"])

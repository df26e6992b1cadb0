"""Four sha256 digests over what graphck answers on seeded inputs.

    PYTHONPATH=src python tests/output_digest.py [--seed N]

The cone-set part hashes, in a fixed order, the repr of

* every ``parse_setexpr`` result of seeded expressions over fibers of the
  corpus graphs (comparisons included),
* every ``&``, ``|``, ``^`` and ``-`` of pairs of those sets on one fiber,
* on the first fiber of each corpus graph, ``boundary_contains`` and
  ``boundary_equal`` of every ordered pair of those sets, and
  ``tree_invariant_of(s, depth=1)`` of each set ``s``,
* every roundtrip ``open_set_of`` -> ``tree_invariant_of`` ->
  ``family_open_set`` of the corpus families, over every base,
* ``parse_setexpr`` of each seeded expression mangled as the fuzz test
  mangles its inputs (``test_fuzz.mangle``), with a random stream of its
  own, so that most of them end in an error.

The lattice part hashes, for every corpus graph, seeded random graphs and
seeded graphs with breaking vertices (``helpers.random_breaking_graph``),

* the families and notes of ``enumerate_invariants`` and ``hasse_edges``,
* every ``quotient_data``: vertices, bundles and marks,
* ``is_invariant`` on seeded candidate families, admissible or not.

The census part hashes, for the corpus graphs, seeded chains, rings,
binary trees, ladders, complete digraphs K3-K7 and layered dags with
back edges, each read from text with its vertices declared in a seeded
order, and seeded random graphs,

* the ``structure_report``: each cycle with its kind and count, the
  flags and the witnesses,
* ``count_paths_into`` at every vertex.

The points part hashes, for seeded walks and ``stem@circuit`` texts over
the corpus graphs (now and then one that names no point), the kind and
the ``str`` (never the ``repr``) of

* the ``parse_point`` result,
* ``act`` and ``standard_form``, with its degree, along seeded arrows into
  the point, most of them composable,
* ``transversal_translate`` with seeded marks,
* ``end_member`` on seeded ring sets of the point's fiber.

An error is hashed by its type and message.  A change meant to keep every
answer prints the same digests before and after; pytest does not collect
this file, but ``tests/test_golden.py`` computes the seed-5 digests in
process and compares them with ``tests/golden/digests.json``.  When a
change to an answer is meant, regenerate that file with

    PYTHONPATH=src python tests/output_digest.py --seed 5 --json > tests/golden/digests.json

and say in CHANGES.md which answers changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from graphck import corpus  # noqa: E402
from graphck.graphs import EdgeBundle, GraphError, parse_graph  # noqa: E402
from graphck.cover import end_member, standard_form, transversal_translate  # noqa: E402
from graphck.invariants import (  # noqa: E402
    Invariant,
    enumerate_invariants,
    family_open_set,
    hasse_edges,
    is_invariant,
    open_set_of,
    quotient_data,
    tree_invariant_of,
)
from graphck.points import act, parse_point  # noqa: E402
from graphck.setexpr import parse_setexpr  # noqa: E402
from graphck.structure import count_paths_into, structure_report  # noqa: E402
from graphck.trees import FiberTree  # noqa: E402
from helpers import (  # noqa: E402
    random_breaking_graph,
    random_graph,
    random_lasso,
    random_walk_path,
)
from test_fuzz import mangle  # noqa: E402

FIBERS = 440  # fibers drawn, cycling through the corpus
SETS_PER_FIBER = 6
RANDOM_GRAPHS = 200
BREAKING_GRAPHS = 60  # most of the lattice part's families with exclusions
CANDIDATES = 30  # per graph, each also asked without its exclusions
OPS = {"&": "intersect", "|": "union", "^": "symmdiff", "-": "minus"}
POINTS = 660  # points drawn, cycling through the corpus
ARROWS_PER_POINT = 3
SETS_PER_POINT = 3


def _cone(rng, g, base) -> str:
    p = random_walk_path(rng, g, max_len=4, start=base)
    cut = [e for e in g.out_instances(p.terminus, 2) if rng.random() < 0.3]
    return "V(%s; %s)" % (p, ",".join(map(str, cut))) if cut else "V(%s)" % p


def _expression(rng, g, base, atoms: int) -> str:
    if atoms == 1:
        return _cone(rng, g, base)
    left = rng.randint(1, atoms - 1)
    return "(%s %s %s)" % (
        _expression(rng, g, base, left),
        rng.choice(list(OPS)),
        _expression(rng, g, base, atoms - left),
    )


def _answer(f, *args) -> str:
    try:
        return repr(f(*args))
    except GraphError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _edges(es) -> str:
    return "{%s}" % ",".join(sorted(map(str, es)))


def _family(fam) -> str:
    """A family as {vertex: edges} in its own order, each edge set sorted,
    so that no line depends on the hash seed."""
    return "{%s}" % ", ".join("%s: %s" % (p, _edges(es)) for p, es in fam.items())


def cone_set_records(seed: int):
    """The reprs that the cone-set digest covers, in order."""
    rng = random.Random(seed)
    mangler = random.Random("mangled %d" % seed)
    for i in range(FIBERS):
        g = corpus.load(corpus.GRAPH_NAMES[i % len(corpus.GRAPH_NAMES)])
        base = rng.choice(g.vertices)
        tree = FiberTree(g, base)
        sets = []
        for _ in range(SETS_PER_FIBER):
            text = _expression(rng, g, base, rng.randint(1, 8))
            if rng.random() < 0.2:
                text += " == " + _expression(rng, g, base, rng.randint(1, 4))
            result = parse_setexpr(tree, text)
            yield "%s %s := %r" % (g.name, text, result)
            if not isinstance(result, bool):
                sets.append(result)
            bad = mangle(mangler, text)
            yield "%s %r := %s" % (g.name, bad, _answer(parse_setexpr, tree, bad))
        for x in sets:
            for y in sets:
                for op, name in OPS.items():
                    yield "%r %s %r = %s" % (x, op, y, _answer(getattr(x, name), y))
        if i < len(corpus.GRAPH_NAMES):  # one fiber per corpus graph
            for x in sets:
                yield "%r scans to %s" % (x, _answer(lambda: _family(tree_invariant_of(x, depth=1))))
                for y in sets:
                    yield "%r covers %r on the boundary: %s, equal: %s" % (
                        x,
                        y,
                        _answer(x.boundary_contains, y),
                        _answer(x.boundary_equal, y),
                    )
    for name in corpus.GRAPH_NAMES:
        g = corpus.load(name)
        for inv in enumerate_invariants(g):
            for base in g.vertices:
                fib = FiberTree(g, base)
                w = open_set_of(fib, inv, depth=4)
                fam = tree_invariant_of(w, depth=1)
                back = family_open_set(fib, fam)
                yield "%s %s %s at %s: %r -> %s -> %r" % (
                    name,
                    sorted(inv.vertices),
                    [(u, _edges(es)) for u, es in inv.exclusions],
                    base,
                    w,
                    _family(fam),
                    back,
                )


def _candidates(rng, g):
    """Families drawn at random, most of them inadmissible: any vertex set,
    a few out-edges excluded at some members, a stray edge now and then."""
    stray = EdgeBundle("zz", "zz", "zz").instance()
    for _ in range(CANDIDATES):
        nset = [v for v in g.vertices if rng.random() < 0.6]
        excl = {}
        for u in nset:
            if rng.random() < 0.5:
                pool = list(g.out_instances(u, 2)) + [stray]
                excl[u] = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        yield Invariant.make(nset, excl)
        yield Invariant.make(nset)


def lattice_records(seed: int):
    """The reprs that the lattice digest covers, in order."""
    rng = random.Random(seed)
    pool = [corpus.load(name) for name in corpus.GRAPH_NAMES]
    pool += [random_graph(rng) for _ in range(RANDOM_GRAPHS)]
    breaking = random.Random("breaking %d" % seed)
    pool += [random_breaking_graph(breaking) for _ in range(BREAKING_GRAPHS)]
    for k, g in enumerate(pool):
        label = "%d %s %r" % (k, g.name, g.bundles)
        en = enumerate_invariants(g)
        yield "%s: %s notes %r" % (label, [str(inv) for inv in en], en.notes)
        yield "%s: covers %r" % (label, hasse_edges(en.invariants))
        for inv in en:
            qd = quotient_data(g, inv)
            yield "%s: %s -> %r %r %r" % (
                label,
                inv,
                qd.graph.vertices,
                qd.graph.bundles,
                sorted(qd.s_marks),
            )
        for inv in _candidates(rng, g):
            yield "%s: %s is %s" % (label, inv, _answer(is_invariant, g, inv))


def _text(rng, vertices, edges) -> str:
    """Graph text with the vertices declared in a seeded order."""
    vertices = list(vertices)
    rng.shuffle(vertices)
    lines = ["vertex %s" % v for v in vertices]
    lines += ["edge e%d : %s -> %s" % (k, u, v) for k, (u, v) in enumerate(edges)]
    return "\n".join(lines)


def _census_texts(rng):
    """(label, text) of the census graphs, in order."""
    for n in (1, 2, 7, 40, 150):
        vs = ["v%d" % i for i in range(n)]
        yield "chain %d" % n, _text(rng, vs, zip(vs, vs[1:]))
        yield "ring %d" % n, _text(rng, vs, zip(vs, vs[1:] + vs[:1]))
    for d in (1, 3, 6):
        vs = ["n%d" % i for i in range(1, 2 ** (d + 1))]
        edges = [("n%d" % (i // 2), v) for i, v in enumerate(vs[1:], 2)]
        yield "btree %d" % d, _text(rng, vs, edges)
    for n in (2, 5, 12):
        vs = ["%s%d" % (x, i) for x in "ab" for i in range(n)]
        edges = [(x + str(i), y + str(i + 1)) for i in range(n - 1) for x in "ab" for y in "ab"]
        yield "ladder %d" % n, _text(rng, vs, edges)
    for n in range(3, 8):
        vs = ["v%d" % i for i in range(n)]
        yield "K%d" % n, _text(rng, vs, [(u, v) for u in vs for v in vs if u != v])
    for n in (12, 60, 200):
        for _ in range(3):
            layers = [["l%d_%d" % (i, j) for j in range(max(1, n // 6))] for i in range(6)]
            edges = [(u, rng.choice(nxt)) for cur, nxt in zip(layers, layers[1:]) for u in cur]
            edges += [(u, rng.choice(nxt)) for cur, nxt in zip(layers, layers[1:]) for u in cur]
            edges += [(v, u) for u, v in rng.sample(edges, 3)]
            yield "dag %d" % n, _text(rng, [v for layer in layers for v in layer], edges)


def census_records(seed: int):
    """The reprs that the census digest covers, in order."""
    rng = random.Random(seed)
    graphs = [(name, corpus.load(name)) for name in corpus.GRAPH_NAMES]
    graphs += [(label, parse_graph(text, label)) for label, text in _census_texts(rng)]
    graphs += [("random %d" % k, random_graph(rng)) for k in range(RANDOM_GRAPHS)]
    for label, g in graphs:
        r = structure_report(g)
        yield "%s %r: %r %r %r" % (
            label,
            g.vertices,
            [(str(c), c.kind, c.count) for c in r.cycles],
            r.flags(),
            r.witnesses,
        )
        yield "%s into %r" % (label, [(v, count_paths_into(g, v)) for v in g.vertices])


def _point_text(rng, g) -> str:
    """A walk, a stem@circuit end, or a stem@walk text that may name no
    point."""
    r = rng.random()
    if r < 0.4:
        x = random_lasso(rng, g)
        if x is not None:
            return str(x)
    elif r < 0.5:
        return "%s@%s" % (random_walk_path(rng, g, 3), random_walk_path(rng, g, 3))
    return str(random_walk_path(rng, g))


def _said(f, *args) -> str:
    """The str of f's answer, or the error's type and message."""
    try:
        return str(f(*args))
    except GraphError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _point(x) -> str:
    return "%s %s" % (x.kind, x)


def _form(alpha, x) -> str:
    sf = standard_form(alpha, x)
    return "%s degree %d" % (sf, sf.degree)


def _translate(g, x, marks) -> str:
    alpha, y = transversal_translate(g, x, marks)
    return "%s, %s" % (alpha, _point(y))


def point_records(seed: int):
    """The strs that the points digest covers, in order."""
    rng = random.Random(seed)
    for i in range(POINTS):
        g = corpus.load(corpus.GRAPH_NAMES[i % len(corpus.GRAPH_NAMES)])
        text = _point_text(rng, g)
        yield "%s %s := %s" % (g.name, text, _said(lambda: _point(parse_point(g, text))))
        try:
            x = parse_point(g, text)
        except GraphError:
            continue
        for _ in range(ARROWS_PER_POINT):
            start = x.origin if rng.random() < 0.9 else None
            alpha = random_walk_path(rng, g, 5, start).inverse()
            yield "%s by %s: %s; %s" % (
                x,
                alpha,
                _said(lambda: _point(act(alpha, x))),
                _said(_form, alpha, x),
            )
        marks = [v for v in sorted(g.regular_vertices) if rng.random() < 0.3]
        yield "%s marks %s: %s" % (x, marks, _said(_translate, g, x, marks))
        tree = FiberTree(g, x.origin)
        for _ in range(SETS_PER_POINT):
            expr = _expression(rng, g, x.origin, rng.randint(1, 4))
            rs = parse_setexpr(tree, expr)
            yield "%s in %s: %s" % (x, expr, _said(end_member, rs, x))


PARTS = (
    ("cone sets", cone_set_records),
    ("lattice", lattice_records),
    ("census", census_records),
    ("points", point_records),
)


def digest(records) -> tuple[str, int]:
    """The sha256 of the records, one line each, and how many there were."""
    h = hashlib.sha256()
    n = 0
    for line in records:
        h.update(line.encode("utf-8") + b"\n")
        n += 1
    return h.hexdigest(), n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=19)
    p.add_argument("--json", action="store_true", help="print the digests as one JSON object")
    args = p.parse_args(argv)
    found = {}
    for part, records in PARTS:
        found[part], n = digest(records(args.seed))
        if not args.json:
            print("%s  %d records, seed %d: %s" % (found[part], n, args.seed, part))
    if args.json:
        print(json.dumps({"seed": args.seed, "digests": found}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Two sha256 digests over what graphck answers on seeded inputs.

    PYTHONPATH=src python tests/output_digest.py [--seed N]

The cone-set part hashes, in a fixed order, the repr of

* every ``parse_setexpr`` result of seeded expressions over fibers of the
  corpus graphs (comparisons included),
* every ``&``, ``|``, ``^`` and ``-`` of pairs of those sets on one fiber,
* every roundtrip ``open_set_of`` -> ``tree_invariant_of`` ->
  ``family_open_set`` of the corpus families, over every base.

The lattice part hashes, for every corpus graph and seeded random graphs,

* the families and notes of ``enumerate_invariants`` and ``hasse_edges``,
* every ``quotient_data``: vertices, bundles and marks,
* ``is_invariant`` on seeded candidate families, admissible or not.

An error is hashed by its type and message.  A change meant to keep every
answer prints the same digests before and after; pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from graphck import corpus  # noqa: E402
from graphck.graphs import EdgeBundle, GraphError  # noqa: E402
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
from graphck.setexpr import parse_setexpr  # noqa: E402
from graphck.trees import FiberTree  # noqa: E402
from helpers import random_graph, random_walk_path  # noqa: E402

FIBERS = 440  # fibers drawn, cycling through the corpus
SETS_PER_FIBER = 6
RANDOM_GRAPHS = 200
CANDIDATES = 30  # per graph, each also asked without its exclusions
OPS = {"&": "intersect", "|": "union", "^": "symmdiff", "-": "minus"}


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
        for x in sets:
            for y in sets:
                for op, name in OPS.items():
                    yield "%r %s %r = %s" % (x, op, y, _answer(getattr(x, name), y))
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=19)
    args = p.parse_args(argv)
    for part, records in (("cone sets", cone_set_records), ("lattice", lattice_records)):
        h = hashlib.sha256()
        n = 0
        for line in records(args.seed):
            h.update(line.encode("utf-8") + b"\n")
            n += 1
        print("%s  %d records, seed %d: %s" % (h.hexdigest(), n, args.seed, part))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One sha256 over what the cone-set calculus answers on seeded inputs.

    PYTHONPATH=src python tests/output_digest.py [--seed N]

It hashes, in a fixed order, the repr of

* every ``parse_setexpr`` result of seeded expressions over fibers of the
  corpus graphs (comparisons included),
* every ``&``, ``|``, ``^`` and ``-`` of pairs of those sets on one fiber,
* every roundtrip ``open_set_of`` -> ``tree_invariant_of`` ->
  ``family_open_set`` of the corpus families, over every base.

An error is hashed by its type and message.  A change meant to keep every
answer prints the same digest before and after; pytest does not collect
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
from graphck.graphs import GraphError  # noqa: E402
from graphck.invariants import (  # noqa: E402
    enumerate_invariants,
    family_open_set,
    open_set_of,
    tree_invariant_of,
)
from graphck.setexpr import parse_setexpr  # noqa: E402
from graphck.trees import FiberTree  # noqa: E402
from helpers import random_walk_path  # noqa: E402

FIBERS = 440  # fibers drawn, cycling through the corpus
SETS_PER_FIBER = 6
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


def records(seed: int):
    """The reprs that the digest covers, in order."""
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=19)
    args = p.parse_args(argv)
    h = hashlib.sha256()
    n = 0
    for line in records(args.seed):
        h.update(line.encode("utf-8") + b"\n")
        n += 1
    print("%s  %d records, seed %d" % (h.hexdigest(), n, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

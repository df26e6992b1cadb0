"""Seeded generators of graph text for the benchmark workloads.

Every generator returns text in graphck's line format (``vertex u`` and
``edge e : u -> v * m``), so the program under test only ever sees
generated text.  Generators that draw random choices take the seed as
an argument; equal seeds give equal text.  Vertex names start with
``v``/``a``/``b``/``n`` and edge names with ``e``, so the two never
collide.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "graphck" / "corpus"


@dataclass(frozen=True)
class Spec:
    """One query: which composition to run, on what, with which options."""

    kind: str
    label: str
    text: str = ""
    params: tuple = ()


_GOLDEN = 0.6180339887498949


def interleave(classes, n: int, rng: random.Random) -> list[Spec]:
    """n specs from weighted classes, spread evenly through the list.

    classes is a list of (weight, make) with make(q, k, rng) -> Spec, k
    the running count within the class and q = frac(k * golden ratio) a
    low-discrepancy position in [0, 1) from which make picks the size.
    Classes take turns by smooth weighted round robin, so any prefix of
    the list holds each class, and each class's sizes, in proportion: a
    run that stops part way through a pass still sees the whole mix.
    Sizes follow from q alone and the seed only reaches the content of
    each input, which keeps the cost of a pass the same from seed to
    seed.
    """
    total = sum(w for w, _ in classes)
    credit = [0.0] * len(classes)
    count = [0] * len(classes)
    out = []
    for _ in range(n):
        for i, (w, _) in enumerate(classes):
            credit[i] += w
        i = max(range(len(classes)), key=credit.__getitem__)
        credit[i] -= total
        q = (count[i] * _GOLDEN) % 1.0
        out.append(classes[i][1](q, count[i], rng))
        count[i] += 1
    return out


# graphck.corpus.GRAPH_NAMES, restated so inputs never come from the program
CORPUS_NAMES = ("edge", "two", "chain", "par", "t2", "o2", "oinf", "loop", "trans", "mix", "dd")


def _text(vertices, edges) -> str:
    lines = ["vertex %s" % v for v in vertices]
    for name, u, v, mult in edges:
        tail = "" if mult == 1 else " * %s" % mult
        lines.append("edge %s : %s -> %s%s" % (name, u, v, tail))
    return "\n".join(lines) + "\n"


def chain(n: int) -> str:
    """n vertices in a row: v0 -> v1 -> ... -> v(n-1)."""
    vs = ["v%d" % i for i in range(n)]
    return _text(vs, [("e%d" % i, vs[i], vs[i + 1], 1) for i in range(n - 1)])


def ring(n: int) -> str:
    """A chain of n vertices closed into one directed cycle."""
    vs = ["v%d" % i for i in range(n)]
    return _text(vs, [("e%d" % i, vs[i], vs[(i + 1) % n], 1) for i in range(n)])


def btree(d: int) -> str:
    """The complete binary tree of depth d, edges pointing away from the root."""
    count = 2 ** (d + 1) - 1
    vs = ["n%d" % i for i in range(1, count + 1)]
    edges = [("e%d" % i, "n%d" % (i // 2), "n%d" % i, 1) for i in range(2, count + 1)]
    return _text(vs, edges)


def doubled_ladder(n: int) -> str:
    """Two rows of n vertices with all four edges between neighbouring columns."""
    vs = ["a%d" % i for i in range(n)] + ["b%d" % i for i in range(n)]
    edges = []
    for i in range(n - 1):
        for x in "ab":
            for y in "ab":
                edges.append(("e%s%s%d" % (x, y, i), "%s%d" % (x, i), "%s%d" % (y, i + 1), 1))
    return _text(vs, edges)


def complete_digraph(n: int) -> str:
    """Every ordered pair of distinct vertices joined by one edge, no loops."""
    vs = ["v%d" % i for i in range(n)]
    edges = [
        ("e%d_%d" % (i, j), vs[i], vs[j], 1) for i in range(n) for j in range(n) if i != j
    ]
    return _text(vs, edges)


def ring_with_chords(n: int, chords: int) -> str:
    """A ring of n vertices plus chords v(2k) -> v(2k + 2), k < chords."""
    vs = ["v%d" % i for i in range(n)]
    edges = [("e%d" % i, vs[i], vs[(i + 1) % n], 1) for i in range(n)]
    edges += [("c%d" % k, vs[2 * k % n], vs[(2 * k + 2) % n], 1) for k in range(chords)]
    return _text(vs, edges)


def rose(petals: int) -> str:
    """One vertex carrying the given number of loops."""
    return _text(["v0"], [("e%d" % i, "v0", "v0", 1) for i in range(petals)])


def omega_emitter() -> str:
    """u emits omega edges to v and one edge to w; v returns to u, w is a sink."""
    return _text(
        ["u", "v", "w"], [("ea", "u", "v", "omega"), ("eb", "v", "u", 1), ("ec", "u", "w", 1)]
    )


def layered_dag(n: int, seed: int, back_edges: int = 3) -> str:
    """n vertices in 6 layers of near-equal width.

    Each vertex outside the last layer has 2 edges into the next layer,
    so a vertex in layer i starts 2^(5-i) maximal directed paths
    whatever the seed; then back_edges edges run against seeded forward
    edges, each closing a short cycle.
    """
    rng = random.Random(seed)
    depth = 6
    cuts = [round(i * n / depth) for i in range(depth + 1)]
    layers = [["v%d" % j for j in range(cuts[i], cuts[i + 1])] for i in range(depth)]
    edges = []
    for i in range(depth - 1):
        for u in layers[i]:
            for v in rng.sample(layers[i + 1], min(len(layers[i + 1]), 2)):
                edges.append(("e%d" % len(edges), u, v, 1))
    for k, (_, u, v, _) in enumerate(rng.sample(edges, min(back_edges, len(edges)))):
        edges.append(("k%d" % k, v, u, 1))
    return _text(["v%d" % j for j in range(n)], edges)


def random_small(seed: int, n: int) -> str:
    """n vertices and n..n+2 random bundles: loops, multi-edges, some omega."""
    rng = random.Random(seed)
    vs = ["v%d" % i for i in range(n)]
    edges = []
    for j in range(rng.randint(n, n + 2)):
        roll = rng.random()
        mult = "omega" if roll < 0.1 else rng.randint(2, 3) if roll < 0.25 else 1
        edges.append(("e%d" % j, rng.choice(vs), rng.choice(vs), mult))
    return _text(vs, edges)


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / (name + ".graph")).read_text(encoding="utf-8")


_VERTEX = re.compile(r"vertex\s+(\S+)\Z")
_EDGE = re.compile(r"edge\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)(?:\s*\*\s*(\S+))?\Z")


def read_graph(text: str):
    """(vertices, [(edge, origin, terminus, multiplicity)]) from graph text.

    Multiplicities are ints or the string "omega".  This reader is the
    benchmark's own, so references never go through graphck's parser.
    """
    vertices = []
    edges = []
    for raw in text.splitlines():
        for stmt in raw.split("#", 1)[0].split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            m = _VERTEX.match(stmt)
            if m:
                vertices.append(m.group(1))
                continue
            m = _EDGE.match(stmt)
            if m is None:
                raise ValueError("unreadable graph statement %r" % stmt)
            e, u, v, mult = m.groups()
            edges.append((e, u, v, "omega" if mult == "omega" else int(mult or 1)))
    return vertices, edges


def disjoint_union(names) -> str:
    """The corpus graphs side by side, names prefixed g0_, g1_, ..."""
    vertices = []
    edges = []
    for k, name in enumerate(names):
        pre = "g%d_" % k
        vs, es = read_graph(corpus_text(name))
        vertices += [pre + v for v in vs]
        edges += [(pre + e, pre + u, pre + v, m) for e, u, v, m in es]
    return _text(vertices, edges)

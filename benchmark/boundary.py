"""boundary: fiber queries on a few graphs parsed once in setup.

The graphs are the corpus plus small cyclic ones (K3, a three-loop
rose, a ring with a chord, an omega emitter).  Three kinds of query:

* law: operands from seeded cone-set expressions of 4-32 atoms at walk
  apexes up to depth 6, parsed with parse_setexpr, then a Boolean-ring
  identity (x ^ x = 0, distributivity, absorption, ...) checked with
  direct RingSet calls;
* roundtrip: open_set_of, tree_invariant_of, family_open_set and
  boundary_equal on a family enumerated in setup;
* arrow: a composable arrow triple checked for associativity, the
  reconstruction of standard_form and additivity of the degree.

ringsets, trees, paths, points and cover do nearly all the work, and
this is the only workload where thousands of queries share one graph,
so caching on Graph shows here and nowhere else.
"""

from __future__ import annotations

from collections import deque
from functools import cache, partial

import reference as ref
from gen import (
    CORPUS_NAMES,
    Spec,
    complete_digraph,
    corpus_text,
    interleave,
    omega_emitter,
    ring_with_chords,
    rose,
)

PASS = 2000
OMEGA_CAP = 3
LAWS = {
    "xor_self": 1,
    "absorb": 2,
    "difference": 2,
    "split": 2,
    "distribute": 3,
    "de_morgan": 3,
}


def _graphs() -> list[tuple[str, str]]:
    named = [(n, corpus_text(n)) for n in CORPUS_NAMES]
    return named + [
        ("K3", complete_digraph(3)),
        ("rose3", rose(3)),
        ("ring5+1", ring_with_chords(5, 1)),
        ("emitter", omega_emitter()),
    ]


def _instances(e: str, m) -> list[str]:
    if m == 1:
        return [e]
    return ["%s#%d" % (e, i) for i in range(OMEGA_CAP if m == ref.OMEGA else m)]


def _letters(g: ref.RefGraph, v: str) -> list[tuple[str, bool, str]]:
    """(instance, forward, vertex reached) for every letter leaving v."""
    out = [(i, True, t) for e, t, m in g.out[v] for i in _instances(e, m)]
    out += [(i, False, u) for e, u, m in g.inc[v] for i in _instances(e, m)]
    return out


def _walk(g: ref.RefGraph, start: str, length: int, rng, directed: bool = False):
    """A seeded reduced walk: (letters, end vertex)."""
    word = []
    at = start
    for _ in range(length):
        options = [
            x
            for x in _letters(g, at)
            if (x[1] or not directed) and not (word and (x[0], not x[1]) == word[-1][:2])
        ]
        if not options:
            break
        word.append(rng.choice(options))
        at = word[-1][2]
    return word, at


def _text(word, start: str) -> str:
    return ".".join(i if fwd else "~" + i for i, fwd, _ in word) or start


def _inverse(word, start: str):
    """Letters of the reversed walk, which starts at the old end."""
    ends = [start] + [x[2] for x in word]
    return [(i, not fwd, ends[k]) for k, (i, fwd, _) in reversed(list(enumerate(word)))]


def _circuit(g: ref.RefGraph, v: str):
    """Letters of a shortest directed cycle through v, or None."""
    prev = {}
    queue = deque([v])
    while queue:
        at = queue.popleft()
        for e, t, m in g.out[at]:
            step = (_instances(e, m)[0], True, t)
            if t == v:
                word = [step]
                while at != v:
                    at, last = prev[at]
                    word.append(last)
                return word[::-1]
            if t not in prev:
                prev[t] = (at, step)
                queue.append(t)
    return None


def _atom(g: ref.RefGraph, base: str, rng) -> str:
    word, end = _walk(g, base, rng.randint(0, 6), rng)
    excluded = [i for i, fwd, _ in _letters(g, end) if fwd and rng.random() < 0.3]
    tail = "; " + ", ".join(excluded) if excluded else ""
    return "V(%s%s)" % (_text(word, base), tail)


def _expression(g: ref.RefGraph, base: str, atoms: int, rng) -> str:
    if atoms == 1:
        return _atom(g, base, rng)
    left = rng.randint(1, atoms - 1)
    return "(%s %s %s)" % (
        _expression(g, base, left, rng),
        rng.choice("&|^-"),
        _expression(g, base, atoms - left, rng),
    )


def generate(rng) -> list[Spec]:
    graphs = [(name, ref.RefGraph(text)) for name, text in _graphs()]
    family_counts = [len(ref.families(g)) for _, g in graphs]

    def law(q, k, rng):
        gi = k % len(graphs)
        name, g = graphs[gi]
        base = rng.choice(g.vertices)
        law_name = sorted(LAWS)[(k // len(graphs)) % len(LAWS)]
        atoms = 4 + int(29 * q)
        parts = LAWS[law_name]
        sizes = [atoms // parts + (j < atoms % parts) for j in range(parts)]
        operands = tuple(_expression(g, base, s, rng) for s in sizes)
        label = "law %s %s@%s %d atoms" % (law_name, name, base, atoms)
        return Spec("law", label, "", (gi, base, law_name, operands))

    def roundtrip(q, k, rng):
        gi = k % len(graphs)
        name, g = graphs[gi]
        fi = int(family_counts[gi] * q)
        base = rng.choice(g.vertices)
        return Spec("roundtrip", "roundtrip %s#%d@%s" % (name, fi, base), "", (gi, fi, base))

    def arrow(q, k, rng):
        gi = k % len(graphs)
        name, g = graphs[gi]
        start = rng.choice(g.vertices)
        stem, end = _walk(g, start, rng.randint(0, 6), rng)
        circuit = _circuit(g, end) if rng.random() < 0.4 else None
        point = _text(stem, start)
        if circuit:
            point += "@" + _text(circuit, end)
        walks = []
        at = start
        for _ in range(3):
            back, origin = _walk(g, at, rng.randint(0, 5), rng)
            walks.append(_text(_inverse(back, at), origin))
            at = origin
        return Spec("arrow", "arrow %s %s" % (name, point), "", (gi, point, tuple(walks)))

    classes = [(40, law), (30, roundtrip), (30, arrow)]
    return interleave(classes, PASS, rng)


class State:
    """Graphs, fibers, families and parsed arrows shared by every query."""

    def __init__(self, gc, specs):
        self.graphs = [gc.parse_graph(text, name=name) for name, text in _graphs()]
        self.families = [gc.enumerate_invariants(g).invariants for g in self.graphs]
        self.fibers = {}
        for g in self.graphs:
            for v in g.vertices:
                self.fibers[g, v] = gc.FiberTree(g, v)
        self.arrows = {}
        for spec in specs:
            if spec.kind == "arrow":
                gi, point, walks = spec.params
                g = self.graphs[gi]
                self.arrows[spec] = (
                    gc.parse_point(g, point),
                    *(gc.parse_path(g, w) for w in walks),
                )


def prepare(gc, specs):
    return State(gc, specs)


@cache
def _families(name: str) -> frozenset:
    """Brute-force families of one of the workload's graphs."""
    return frozenset(ref.families(ref.RefGraph(dict(_graphs())[name])))


def reference(spec: Spec) -> dict:
    """Laws hold whatever the operands; a roundtrip gives back its family."""
    if spec.kind != "roundtrip":
        return {"holds": True}
    gi, fi, base = spec.params
    name, text = _graphs()[gi]
    g = ref.RefGraph(text)
    depth1 = {base: base}
    for e, t, m in g.out[base]:
        for i in _instances(e, m):
            depth1[i] = t
    return {"holds": True, "families": _families(name), "depth1": depth1}


def _ring(gc, tr, method, *args):
    out = tr.call("ringsets.ops", method, *args)
    if tr.enabled and isinstance(out, gc.RingSet):
        tr.add("ringsets.blocks_out", len(out.blocks))
    return out


def _law(gc, tr, name, ops):
    op = partial(_ring, gc, tr)
    x = ops[0]
    if name == "xor_self":
        return op(op(x.symmdiff, x).is_empty)
    y = ops[1]
    if name == "absorb":
        return op(op(x.union, op(x.intersect, y)).equals, x)
    if name == "difference":
        return op(op(x.minus, op(x.minus, y)).equals, op(x.intersect, y))
    if name == "split":
        return op(op(op(x.minus, y).union, op(x.intersect, y)).equals, x)
    z = ops[2]
    if name == "distribute":
        left = op(x.intersect, op(y.union, z))
        return op(left.equals, op(op(x.intersect, y).union, op(x.intersect, z)))
    left = op(x.minus, op(y.union, z))
    return op(left.equals, op(op(x.minus, y).intersect, op(x.minus, z)))


def _arrow(gc, tr, x, a1, a2, a3):
    act = partial(tr.call, "points.act", gc.act)
    compose = partial(tr.call, "cover.compose_arrows", gc.compose_arrows)
    degree = partial(tr.call, "cover.degree", gc.degree)
    x1 = act(a1, x)
    x2 = act(a2, x1)
    left = compose((a3, x2), compose((a2, x1), (a1, x)))
    right = compose(compose((a3, x2), (a2, x1)), (a1, x))
    rebuilt = []
    for alpha, y in ((a1, x), left):
        sf = tr.call("cover.standard_form", gc.standard_form, alpha, y)
        b2inv = tr.call("paths.compose", sf.beta2.inverse)
        rebuilt.append(
            len(sf.beta1) + len(sf.beta2) == len(alpha)
            and tr.call("paths.compose", sf.beta1.concat, b2inv) == alpha
            and act(sf.beta2, sf.x) == y
        )
    a21 = tr.call("paths.compose", a2.concat, a1)
    additive = degree(a21, x) == degree(a1, x) + degree(a2, x1)
    return (left == right, *rebuilt, additive)


def run(gc, tr, spec: Spec, state: State):
    if spec.kind == "law":
        gi, base, name, operands = spec.params
        fiber = state.fibers[state.graphs[gi], base]
        ops = [tr.call("setexpr.parse_setexpr", gc.parse_setexpr, fiber, e) for e in operands]
        return _law(gc, tr, name, ops)
    if spec.kind == "arrow":
        return _arrow(gc, tr, *state.arrows[spec])
    gi, fi, base = spec.params
    inv = state.families[gi][fi]
    fiber = state.fibers[state.graphs[gi], base]
    w = tr.call("invariants.open_set_of", gc.open_set_of, fiber, inv, depth=4)
    fam = tr.call("invariants.tree_invariant_of", gc.tree_invariant_of, w, depth=1)
    back = tr.call("invariants.family_open_set", gc.family_open_set, fiber, fam)
    return inv, fam, _ring(gc, tr, back.boundary_equal, w)


def check(spec: Spec, answer, want: dict) -> str | None:
    if spec.kind == "law":
        return None if answer is True else "law does not hold"
    if spec.kind == "arrow":
        names = ("associative", "standard form of first", "standard form of composite", "additive")
        bad = [n for n, ok in zip(names, answer) if not ok]
        return "fails: " + ", ".join(bad) if bad else None
    inv, fam, equal = answer
    excl = {u: frozenset(str(e) for e in es) for u, es in inv.exclusions}
    if (inv.vertices, frozenset(excl.items())) not in want["families"]:
        return "enumerated family %s is not admissible by brute force" % (inv,)
    for p, f in fam.items():
        if p.terminus not in inv.vertices or frozenset(str(e) for e in f) != excl.get(p.terminus, frozenset()):
            return "scanned %s at %s disagrees with %s" % (sorted(map(str, f)), p, inv)
    scanned = {str(p) for p in fam}
    for walk, end in want["depth1"].items():
        if end in inv.vertices and walk not in scanned:
            return "walk %s into the family was not scanned" % walk
    return None if equal else "regenerated open set differs on the boundary"


def tally(tr, spec: Spec, answer, want: dict) -> None:
    pass

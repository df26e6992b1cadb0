"""Reference answers computed without graphck.

Everything here works on the benchmark's own reading of the graph text
(``gen.read_graph``) and on closed forms, so a defect in the program
cannot leak into the answer it is checked against.  The algorithms are
deliberately different from the program's: strongly connected
components replace the cycle census for the flags, a topological
dynamic programme replaces the recursive path counts, and families are
found by brute force straight from their definition.
"""

from __future__ import annotations

import functools
import itertools
import json
from math import comb, factorial, prod

from gen import CORPUS_DIR, corpus_text, read_graph

OMEGA = "omega"


def expected() -> dict:
    return json.loads((CORPUS_DIR / "expected.json").read_text(encoding="utf-8"))


class RefGraph:
    """Adjacency of parsed graph text: out[v] = [(edge, terminus, multiplicity)]."""

    def __init__(self, text: str):
        self.vertices, self.edges = read_graph(text)
        self.out = {v: [] for v in self.vertices}
        self.inc = {v: [] for v in self.vertices}
        for e, u, v, m in self.edges:
            self.out[u].append((e, v, m))
            self.inc[v].append((e, u, m))

    def emitters(self) -> set:
        return {v for v in self.vertices if any(m == OMEGA for _, _, m in self.out[v])}

    def sinks(self) -> set:
        return {v for v in self.vertices if not self.out[v]}

    def regular(self) -> set:
        return set(self.vertices) - self.sinks() - self.emitters()

    def reach(self, starts, backward: bool = False) -> set:
        adj = self.inc if backward else self.out
        seen = set(starts)
        todo = list(seen)
        while todo:
            for _, w, _ in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def sccs(self) -> list[set]:
        """Kosaraju's two passes, both iterative."""
        order = []
        seen = set()
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(self.out[root]))]
            while stack:
                v, it = stack[-1]
                for _, w, _ in it:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, iter(self.out[w])))
                        break
                else:
                    stack.pop()
                    order.append(v)
        comps = []
        owner = {}
        for root in reversed(order):
            if root in owner:
                continue
            comp = {root}
            owner[root] = comp
            todo = [root]
            while todo:
                for _, w, _ in self.inc[todo.pop()]:
                    if w not in owner:
                        owner[w] = comp
                        comp.add(w)
                        todo.append(w)
            comps.append(comp)
        return comps

    def cyclic_sccs(self) -> list[set]:
        return [
            c
            for c in self.sccs()
            if len(c) > 1 or any(w in c for v in c for _, w, _ in self.out[v])
        ]

    def is_bare(self, comp: set) -> bool:
        """Each vertex has exactly one out-instance inside the component."""
        for v in comp:
            inside = [m for _, w, m in self.out[v] if w in comp]
            if inside != [1]:
                return False
        return True

    def has_exit(self, comp: set) -> bool:
        return any(w not in comp for v in comp for _, w, _ in self.out[v])


def cycle_kinds(g: RefGraph) -> list[str]:
    """One kind per cycle of a bare component; 'returning' marks the rest.

    A component that is a single bare cycle holds exactly that cycle,
    terminal without exits and transitory with them.  In any other
    cyclic component every cycle has an exit that leads back to it.
    """
    out = []
    for comp in g.cyclic_sccs():
        if g.is_bare(comp):
            out.append("transitory" if g.has_exit(comp) else "terminal")
        else:
            out.append("returning")
    return out


def flags(g: RefGraph) -> dict:
    comps = g.cyclic_sccs()
    kinds = cycle_kinds(g)
    terminal = "terminal" in kinds
    transitory = "transitory" in kinds
    cycle_vertices = set().union(*comps) if comps else set()
    meets_all = len(g.reach(cycle_vertices, backward=True)) == len(g.vertices)
    targets = [next(iter(c)) for c in comps] + sorted(g.sinks() | g.emitters())
    cofinal = all(len(g.reach([t], backward=True)) == len(g.vertices) for t in targets)
    simple = cofinal and not terminal
    return {
        "af": not comps,
        "locally_contractive": bool(comps) and not terminal and meets_all,
        "cofinal": cofinal,
        "essentially_free": not terminal,
        "essentially_principal": not terminal and not transitory,
        "simple": simple,
        "purely_infinite_simple": simple and bool(comps) and meets_all,
    }


def analogue_flags(name: str) -> dict:
    """Flags of the corpus graph a generated family shares its shape with."""
    return dict(expected()[name]["flags"])


def cycles(g: RefGraph) -> list[tuple]:
    """Every vertex-simple cycle as (edge-name set, kind, count), sorted.

    Cycles are listed per bundle sequence, as the program lists them;
    count multiplies the bundle multiplicities.
    """
    out = []
    for comp, kind in zip(g.cyclic_sccs(), cycle_kinds(g)):
        if kind != "returning":
            inside = [e for v in comp for e, w, _ in g.out[v] if w in comp]
            out.append((frozenset(inside), kind, 1))
            continue
        rank = {v: i for i, v in enumerate(sorted(comp))}
        for s in sorted(comp):
            verts = [s]
            onpath = {s}
            steps = []
            iters = [iter(g.out[s])]
            while iters:
                for e, t, m in iters[-1]:
                    if t == s:
                        mults = [x for _, x in steps] + [m]
                        count = OMEGA if OMEGA in mults else prod(mults)
                        out.append((frozenset([x for x, _ in steps] + [e]), kind, count))
                    elif t in comp and t not in onpath and rank[t] > rank[s]:
                        verts.append(t)
                        onpath.add(t)
                        steps.append((e, m))
                        iters.append(iter(g.out[t]))
                        break
                else:
                    iters.pop()
                    onpath.discard(verts.pop())
                    if steps:
                        steps.pop()
    return sorted(out, key=lambda c: (sorted(c[0]), c[1], str(c[2])))


def complete_digraph_cycles(n: int) -> int:
    return sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))


def paths_into(g: RefGraph) -> dict:
    """Directed paths ending at each vertex, unit included, or 'omega'.

    Infinite exactly below a cycle vertex or the target of an omega
    bundle; elsewhere a topological pass sums multiplicity-weighted
    counts of the predecessors.
    """
    sources = set().union(*g.cyclic_sccs()) | {v for _, _, v, m in g.edges if m == OMEGA}
    infinite = g.reach(sources)
    finite = [v for v in g.vertices if v not in infinite]
    indeg = {v: sum(1 for _, u, _ in g.inc[v] if u not in infinite) for v in finite}
    ready = [v for v in finite if indeg[v] == 0]
    count = {}
    while ready:
        v = ready.pop()
        count[v] = 1 + sum(m * count[u] for _, u, m in g.inc[v])
        for _, w, _ in g.out[v]:
            if w not in infinite:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    count.update((v, OMEGA) for v in infinite)
    return count


def truncated_paths(g: RefGraph, depth: int, omega_cap: int, marks) -> tuple[int, int]:
    """(basis size, interior columns) of the depth-truncated path basis.

    Directed paths of length <= depth, omega bundles cut at omega_cap,
    without those ending at a mark; interior columns are the ones of
    length <= depth - 1.
    """
    layer = {v: 1 for v in g.vertices}
    size = interior = 0
    for k in range(depth + 1):
        kept = sum(c for v, c in layer.items() if v not in marks)
        size += kept
        if k < depth:
            interior += kept
        nxt = {v: 0 for v in g.vertices}
        for e, u, v, m in g.edges:
            nxt[v] += (omega_cap if m == OMEGA else m) * layer[u]
        layer = nxt
    return size, interior


def _instances(e: str, m) -> list[str]:
    return [e] if m == 1 else ["%s#%d" % (e, i) for i in range(m)]


def families(g: RefGraph) -> set:
    """Admissible families by brute force over every candidate.

    A family is (vertex set N, exclusion sets F) with F only at infinite
    emitters and only over finite-bundle instances (an excluded omega
    instance can never be admissible).  Checked clause by clause:
    an unexcluded edge from a member lands on a member with empty F; an
    excluded edge landing on a member lands on one with nonempty F; a
    regular vertex whose every out-edge lands on members with empty F is
    a member.  Returned as (N, frozenset((u, F_u) for nonempty F_u)).
    """
    emitters = g.emitters()
    regular = g.regular()
    options = {}
    for v in g.vertices:
        if v in emitters:
            fin = [i for e, _, m in g.out[v] if m != OMEGA for i in _instances(e, m)]
            options[v] = [
                frozenset(c) for k in range(len(fin) + 1) for c in itertools.combinations(fin, k)
            ]
        else:
            options[v] = [frozenset()]
    found = set()
    for k in range(len(g.vertices) + 1):
        for nset in itertools.combinations(g.vertices, k):
            members = set(nset)
            for picks in itertools.product(*(options[v] for v in nset)):
                fmap = dict(zip(nset, picks))
                if _admissible(g, members, fmap, regular):
                    found.add(
                        (frozenset(nset), frozenset((u, f) for u, f in fmap.items() if f))
                    )
    return found


def family_search_size(g: RefGraph) -> int:
    work = 2 ** len(g.vertices)
    for v in g.emitters():
        fin = sum(m for _, _, m in g.out[v] if m != OMEGA)
        work *= 2**fin
    return work


def _admissible(g: RefGraph, members: set, fmap: dict, regular: set) -> bool:
    for u in members:
        fu = fmap[u]
        for e, t, m in g.out[u]:
            inst = _instances(e, 1 if m == OMEGA else m)
            free = m == OMEGA or any(i not in fu for i in inst)
            if free and (t not in members or fmap[t]):
                return False
            if any(i in fu for i in inst) and t in members and not fmap[t]:
                return False
    for v in regular - members:
        if all(t in members and not fmap[t] for _, t, _ in g.out[v]):
            return False
    return True


def covers(fams) -> int:
    """Covering pairs of the family order: N grows, exclusion sets shrink."""
    fams = [(n, dict(f)) for n, f in fams]

    def leq(a, b):
        return a[0] <= b[0] and all(
            a[1].get(u, frozenset()) >= b[1].get(u, frozenset()) for u in a[0]
        )

    below = [[leq(a, b) and a != b for b in fams] for a in fams]
    r = range(len(fams))
    return sum(
        1
        for i in r
        for j in r
        if below[i][j] and not any(below[i][m] and below[m][j] for m in r)
    )


def btree_lattice(d: int) -> tuple[int, int]:
    """(families, covers) of the depth-d binary tree: L(d) = L(d-1)^2."""
    f, c = 2, 1
    for _ in range(d):
        f, c = f * f, 2 * c * f
    return f, c


def union_lattice(parts) -> tuple[int, int]:
    """(families, covers) of a product of lattices given as (families, covers)."""
    total = prod(f for f, _ in parts)
    return total, sum(c * total // f for f, c in parts)


@functools.cache
def corpus_lattice(name: str) -> tuple[int, int]:
    """(families, covers) of a corpus graph, the count from expected.json."""
    fams = corpus_families(name)
    want = expected()[name]["invariants"]
    if len(fams) != want:
        raise AssertionError("brute force finds %d families in %s" % (len(fams), name))
    return want, covers(fams)


@functools.cache
def corpus_families(name: str) -> frozenset:
    return frozenset(families(RefGraph(corpus_text(name))))

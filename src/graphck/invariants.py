"""Vertex families with exclusion sets, and their boundary dictionary.

An admissible family is a vertex set N together with a finite excluded
out-edge set F_u at each member, subject to: members of finite valence
exclude nothing; an unexcluded edge from a member lands on a member that
excludes nothing; an excluded edge landing on a member lands on one that
excludes something; and a finite-valence vertex all of whose out-edges
land on members with empty exclusions is itself a member.

The members H of a family that exclude nothing form a hereditary
saturated set.  Every other member is an infinite emitter outside H
whose omega bundles all land in H, with a forced, nonempty exclusion
set: the instances of its finite bundles that land outside H.  Calling
those vertices B(H), the families are in bijection with the pairs
(H, R) for R within B(H), so there are sum over H of 2^|B(H)| of them.
enumerate_invariants lists the closed sets H by NextClosure, at
O(|V| (V+E)) delay each, and then spends O(V+E) on every family.

Over a tree, each family spreads to the open set union of the cones
V(u; F_u), and conversely an open set is scanned back to the family of
apexes whose cone boundary it swallows; the two directions invert each
other.  Quotient data collapses a family to the graph seen by what is
left over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphs import EdgeBundle, EdgeInstance, Graph, GraphError, is_omega, subgraph_le
from .paths import Path
from .ringsets import BasicSet, RingSet
from .trees import FiberTree


class InvariantError(GraphError):
    pass


@dataclass(frozen=True)
class Invariant:
    """A vertex family plus per-vertex excluded out-edge sets.

    exclusions holds only the nonempty sets, sorted by vertex, so equal
    families compare equal structurally.
    """

    vertices: frozenset[str]
    exclusions: tuple[tuple[str, frozenset[EdgeInstance]], ...] = ()

    @classmethod
    def make(cls, vertices: Iterable[str], exclusions: Mapping[str, Iterable[EdgeInstance]] = {}) -> "Invariant":
        vs = frozenset(vertices)
        pairs = []
        for u, es in exclusions.items():
            es = frozenset(es)
            if not es:
                continue
            if u not in vs:
                raise InvariantError("exclusions at %s, which is not in the family" % u)
            pairs.append((u, es))
        pairs.sort()
        return cls(vs, tuple(pairs))

    def f(self, u: str) -> frozenset[EdgeInstance]:
        for v, es in self.exclusions:
            if v == u:
                return es
        return frozenset()

    @property
    def r_vertices(self) -> frozenset[str]:
        return frozenset(u for u, _ in self.exclusions)

    def sort_key(self):
        return (
            len(self.vertices),
            tuple(sorted(self.vertices)),
            tuple((u, tuple(sorted(e.sort_key() for e in es))) for u, es in self.exclusions),
        )

    def __str__(self) -> str:
        vs = ",".join(sorted(self.vertices))
        if not self.exclusions:
            return "({%s})" % vs
        fs = "; ".join(
            "%s:%s" % (u, ",".join(sorted(str(e) for e in es))) for u, es in self.exclusions
        )
        return "({%s} | %s)" % (vs, fs)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def is_invariant(g: Graph, inv: Invariant) -> CheckResult:
    """Decide admissibility, with human-readable failure witnesses.

    Edges are handled bundle-wise: an omega bundle always has instances
    outside the finite exclusion set, so its terminus is forced into the
    family with empty exclusions; excluded instances of the same bundle
    then contradict that.  This avoids quantifying over instances.
    """
    failures = []
    notes = []
    nset = inv.vertices
    for u in nset:
        g.check_vertex(u)
    fmap = {u: inv.f(u) for u in nset}
    for u, excl in inv.exclusions:
        for e in excl:
            try:
                known = g.bundle(e.bundle.name) == e.bundle
            except GraphError:
                known = False
            if not known or e.origin != u:
                failures.append("excluded edge %s does not leave %s" % (e, u))
    if failures:
        return CheckResult(False, tuple(failures))

    for u in sorted(nset):
        d = g.delta1(u)
        excl = fmap[u]
        if not d.infinite and excl:
            failures.append("vertex %s has finite valence but excludes %d edges" % (u, len(excl)))
        chosen: dict[EdgeBundle, int] = {}
        for e in excl:
            chosen[e.bundle] = chosen.get(e.bundle, 0) + 1
        for b in d.bundles:
            picked = chosen.get(b, 0)
            t = b.terminus
            if is_omega(b.multiplicity) or picked < b.multiplicity:
                # some instance is not excluded
                if t not in nset:
                    failures.append("edge %s leaves the family at %s" % (b.name, u))
                elif fmap[t]:
                    failures.append(
                        "edge %s from %s lands on %s, which must exclude nothing" % (b.name, u, t)
                    )
            if picked and t in nset:
                if not fmap[t]:
                    failures.append(
                        "excluded edge %s from %s lands on %s, which needs a nonempty exclusion set"
                        % (b.name, u, t)
                    )
                elif g.delta1(t).infinite:
                    notes.append(
                        "excluded edge %s lands on the infinite-valence member %s with exclusions"
                        % (b.name, t)
                    )
    for u in g.vertices:
        if u in nset or u not in g.regular_vertices:
            continue
        if all(b.terminus in nset and not fmap[b.terminus] for b in g.delta1(u).bundles):
            failures.append(
                "vertex %s sees only members with empty exclusions and must join the family" % u
            )
    return CheckResult(not failures, tuple(failures), tuple(notes))


def invariant_leq(a: Invariant, b: Invariant) -> bool:
    """a below b: smaller family, larger exclusion sets where both defined."""
    if not a.vertices <= b.vertices:
        return False
    return all(a.f(u) >= es for u, es in b.exclusions if u in a.vertices)


@dataclass(frozen=True)
class Enumeration:
    invariants: tuple[Invariant, ...]
    notes: tuple[str, ...] = ()

    def __iter__(self):
        return iter(self.invariants)

    def __len__(self):
        return len(self.invariants)


def _closed_sets(g: Graph):
    """Every hereditary saturated vertex set, each once, by Ganter's
    NextClosure in lectic order over the sorted vertices.

    The closure of a set adds everything reachable from it, then each
    regular vertex whose every bundle lands inside.  One saturation pass
    with successors first suffices: a vertex on a cycle outside a
    hereditary set always has a successor outside it.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    succ = [[index[b.terminus] for b in g.delta1(v).bundles] for v in verts]
    saturating = [index[v] for comp in g.sccs for v in comp if v in g.regular_vertices]

    def close(seed: bytearray) -> bytearray:
        inside = bytearray(seed)
        stack = [i for i in range(n) if inside[i]]
        while stack:
            for j in succ[stack.pop()]:
                if not inside[j]:
                    inside[j] = 1
                    stack.append(j)
        for i in saturating:
            if not inside[i] and all(inside[j] for j in succ[i]):
                inside[i] = 1
        return inside

    a = close(bytearray(n))
    while True:
        yield frozenset(v for v, x in zip(verts, a) if x)
        for i in range(n - 1, -1, -1):
            if a[i]:
                a[i] = 0
                continue
            a[i] = 1
            b = close(a)
            if b[:i] == a[:i]:
                a = b
                break
            a[i] = 0
        else:
            return


def enumerate_invariants(g: Graph) -> Enumeration:
    """All admissible families, smallest first.

    One family per closed set H and subset R of its breaking vertices
    B(H) (see the module docstring).  Every family still passes through
    is_invariant, whose notes are collected; a failure raises.

    Excluding part of a bundle is never admissible, and neither is
    excluding any instance of an omega bundle: the unexcluded instances
    force the terminus into H, while an excluded one forbids that.  So
    the exclusion set of a breaking vertex is forced, and no finite
    exclusion set along an omega bundle can add a family.
    """
    emitters = sorted(g.infinite_emitters)
    found = []
    notes = set()
    for h in _closed_sets(g):
        breaking = []
        for u in emitters:
            bundles = g.delta1(u).bundles
            if u in h or any(is_omega(b.multiplicity) and b.terminus not in h for b in bundles):
                continue
            excl = [
                e
                for b in bundles
                if not is_omega(b.multiplicity) and b.terminus not in h
                for e in b.instances()
            ]
            if excl:
                breaking.append((u, excl))
        for k in range(len(breaking) + 1):
            for picks in itertools.combinations(breaking, k):
                inv = Invariant.make(h.union(u for u, _ in picks), dict(picks))
                res = is_invariant(g, inv)
                if not res.ok:
                    raise InvariantError(
                        "enumerated family %s is not admissible: %s" % (inv, res.failures[0])
                    )
                found.append(inv)
                notes.update(res.notes)
    found.sort(key=lambda i: i.sort_key())
    return Enumeration(tuple(found), tuple(sorted(notes)))


def hasse_edges(invariants) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with element i directly below element j.

    up[i] is the bitmask of the elements strictly above element i; the
    covers of i are what up[i] holds beyond the union of up[m] over its
    members m.
    """
    invs = list(invariants)
    up = [
        sum(1 << j for j, b in enumerate(invs) if invariant_leq(a, b) and a != b)
        for a in invs
    ]
    edges = []
    for i, above in enumerate(up):
        higher = 0
        rest = above
        while rest:
            low = rest & -rest
            higher |= up[low.bit_length() - 1]
            rest ^= low
        covers = above & ~higher
        while covers:
            low = covers & -covers
            edges.append((i, low.bit_length() - 1))
            covers ^= low
    return edges


def _universe(tree, depth: int, omega_cap: int):
    # the family calculus lives on the directed part of the fiber: cones
    # at vertices reached against the direction are not translation stable
    if isinstance(tree, FiberTree):
        return tree.directed_to_depth(depth, omega_cap)
    return list(tree.vertices)


def _absorb_union(tree, blocks: Iterable[BasicSet]) -> RingSet:
    """The union of the blocks in order, skipping each one already covered."""
    rs = RingSet.empty(tree)
    for b in blocks:
        block = RingSet.of(tree, [b])
        if not rs.contains(block):
            rs = rs.union(block)
    return rs


def open_set_of(tree, inv: Invariant, depth: int = 4, omega_cap: int = 3) -> RingSet:
    """The union of the cones V(p; F at endpoint) over member vertices.

    Over a fiber the union runs over all walks up to the given depth;
    unions absorb, so deeper walks only matter until their cones are
    covered.
    """
    walks = _universe(tree, depth, omega_cap)
    blocks = (BasicSet(p, inv.f(u)) for p in walks if (u := tree.endpoint(p)) in inv.vertices)
    return _absorb_union(tree, blocks)


def residue_part_of(tree, inv: Invariant, depth: int = 4, omega_cap: int = 3) -> RingSet:
    """The full cones at members with empty exclusions only.

    The open set of the family splits as this part together with the
    single points at the excluding members.
    """
    return open_set_of(tree, Invariant.make(inv.vertices - inv.r_vertices), depth, omega_cap)


def _named_omega_indices(w: RingSet, p) -> dict[EdgeBundle, int]:
    """Highest omega-bundle index appearing in the set's blocks or in p."""
    mx: dict[EdgeBundle, int] = {}

    def note(e: EdgeInstance):
        if is_omega(e.bundle.multiplicity):
            prev = mx.get(e.bundle, -1)
            if e.index > prev:
                mx[e.bundle] = e.index

    for b in w.blocks:
        if isinstance(b.apex, Path):
            for s in b.apex.word:
                note(s.edge)
        for e in b.excluded:
            note(e)
    if isinstance(p, Path):
        for s in p.word:
            note(s.edge)
    return mx


def tree_invariant_of(w: RingSet, depth: int = 4, omega_cap: int = 3) -> dict:
    """Scan the tree for apexes whose cone boundary the set swallows.

    Returns {vertex: minimal exclusion set}.  Finite-valence vertices may
    only join with the full cone.  At an infinite-valence vertex the
    exclusion candidates are the finitely many indices the set itself
    names; one fresh index probes all the rest at once, since unnamed
    siblings are interchangeable.
    """
    tree = w.tree
    universe = list(_universe(tree, depth, omega_cap))
    seen = set(universe)
    for b in w.blocks:
        if b.apex not in seen:
            universe.append(b.apex)
            seen.add(b.apex)

    def swallows(block: BasicSet) -> bool:
        return w.boundary_contains(RingSet.of(tree, [block]))

    fam = {}
    for p in universe:
        d = tree.out_edges(p)
        if not d.infinite:
            if swallows(BasicSet(p, frozenset())):
                fam[p] = frozenset()
            continue
        named = _named_omega_indices(w, p)
        ok = True
        for b in d.bundles:
            if is_omega(b.multiplicity):
                probe = b.instance(named.get(b, -1) + 1)
                if not swallows(BasicSet(tree.child(p, probe), frozenset())):
                    ok = False
                    break
        if not ok:
            continue
        candidates = []
        for b in d.bundles:
            if is_omega(b.multiplicity):
                candidates.extend(b.instance(i) for i in range(named.get(b, -1) + 1))
            else:
                candidates.extend(b.instances())
        fmin = frozenset(
            e for e in candidates if not swallows(BasicSet(tree.child(p, e), frozenset()))
        )
        if swallows(BasicSet(p, fmin)):
            fam[p] = fmin
    return fam


def family_open_set(tree, fam: dict) -> RingSet:
    """The union of the cones of a scanned family, smallest walks first."""
    def size(p):
        return len(p.word) if isinstance(p, Path) else 0

    order = sorted(fam, key=lambda p: (size(p), tree.vkey(p)))
    return _absorb_union(tree, (BasicSet(p, fam[p]) for p in order))


@dataclass(frozen=True)
class QuotientData:
    """What is left of a graph after collapsing a family.

    Kept vertices are the outsiders plus the excluding members; all
    positive edges between kept vertices survive.  Marks collect the
    excluding members and the outsiders of finite positive valence in
    the original graph.
    """

    r_vertices: frozenset[str]
    graph: Graph
    s_marks: frozenset[str]


def quotient_data(g: Graph, inv: Invariant) -> QuotientData:
    """The quotient data of a family, which must be admissible."""
    res = is_invariant(g, inv)
    if not res.ok:
        raise InvariantError("not an admissible family: %s" % (res.failures[0],))
    return build_quotient(g, inv)


def build_quotient(g: Graph, inv: Invariant) -> QuotientData:
    """quotient_data without the admissibility check, for a family already
    known to be admissible, such as one from enumerate_invariants."""
    rset = inv.r_vertices
    kept = [v for v in g.vertices if v not in inv.vertices or v in rset]
    keptset = set(kept)
    bundles = [b for b in g.bundles if b.origin in keptset and b.terminus in keptset]
    name = (g.name or "graph") + ".quotient"
    q = Graph(kept, bundles, name=name)
    marks = rset | (g.regular_vertices - inv.vertices)
    bad = marks - q.regular_vertices
    if bad:
        raise InvariantError("marks %s fell out of the regular vertices" % sorted(bad))
    return QuotientData(rset, q, marks)


def induced_marks(sub: Graph, sup: Graph, marks: Iterable[str]) -> frozenset[str]:
    """Push marked regular vertices down a subgraph inclusion.

    A mark survives when the subgraph already carries every out-edge the
    larger graph gives it, instance for instance: the inclusion leaves
    the subgraph no other bundles there, so its out-bundles are equal.
    """
    if not subgraph_le(sub, sup):
        raise InvariantError("not a subgraph inclusion")
    marks = frozenset(marks)
    bad = marks - sup.regular_vertices
    if bad:
        raise InvariantError("marks %s are not regular vertices" % sorted(bad))
    return frozenset(
        v
        for v in marks
        if sub.has_vertex(v) and set(sub.delta1(v).bundles) == set(sup.delta1(v).bundles)
    )

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
enumerate_invariants lists the closed sets H from the generator reach
masks cached on the graph, at O(V) each, and builds every family
straight from (H, R): admissible by construction, it is not checked
again.  is_invariant, the one check, is for a family from outside; it
reads any family so, R its excluding members: it is admissible exactly
when R lies among the emitters, H is closed, and each r in R sends its
omega bundles into H and excludes the forced set.  That is O(V+E) set
work; a family failing it runs the clause-by-clause check, which words
the failures.  quotient_data checks its input so, once; its residue
keeps V - H, with the marks R and regular - H.
hasse_edges reads the order off bit columns over the list, at
O(n (V + X)) big-int operations for n families and X excluded edges,
plus about one per cover to pick the covers out.

Over a tree, each family spreads to the open set union of the cones
V(u; F_u), and conversely an open set is scanned back to the family of
apexes whose cone boundary it swallows; the two directions invert each
other.  Quotient data collapses a family to the graph seen by what is
left over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping

from .graphs import (
    CapError,
    EdgeBundle,
    EdgeInstance,
    Graph,
    GraphError,
    InvariantError,
    is_omega,
    subgraph_le,
)
from .ringsets import BasicSet, RingSet, swallow_test
from .trees import FiberTree, check_depth


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


_ADMISSIBLE = CheckResult(True)
_NOTE = "excluded edge %s lands on the infinite-valence member %s with exclusions"


def is_invariant(g: Graph, inv: Invariant) -> CheckResult:
    """Decide admissibility, with human-readable failure witnesses.

    _check_h_r's set passes accept an admissible family; any other runs
    the clause-by-clause check, which words the failures.  Edges are
    handled bundle-wise: an omega bundle always has instances outside the
    finite exclusion set, so its terminus is forced into the family with
    empty exclusions; excluded instances of the same bundle then
    contradict that.  This avoids quantifying over instances.
    """
    res = _check_h_r(g, inv)
    if res is not None:
        return res
    nset = inv.vertices
    failures = []
    notes = []
    for u in nset:
        g.check_vertex(u)
    fmap = dict(inv.exclusions)
    for u, excl in inv.exclusions:
        # sorted, as equal frozensets may iterate in different orders
        for e in sorted(excl, key=EdgeInstance.sort_key):
            try:
                known = g.bundle(e.bundle.name) == e.bundle
            except GraphError:
                known = False
            if not known or e.origin != u:
                failures.append("excluded edge %s does not leave %s" % (e, u))
    if failures:
        return CheckResult(False, tuple(failures))

    for u in sorted(nset):
        excl = fmap.get(u, frozenset())
        if excl and u not in g.infinite_emitters:
            failures.append("vertex %s has finite valence but excludes %d edges" % (u, len(excl)))
        chosen: dict[EdgeBundle, int] = {}
        for e in excl:
            chosen[e.bundle] = chosen.get(e.bundle, 0) + 1
        for b in g.out_bundles(u):
            picked = chosen.get(b, 0)
            t = b.terminus
            if is_omega(b.multiplicity) or picked < b.multiplicity:
                # some instance is not excluded
                if t not in nset:
                    failures.append("edge %s leaves the family at %s" % (b.name, u))
                elif fmap.get(t):
                    failures.append(
                        "edge %s from %s lands on %s, which must exclude nothing" % (b.name, u, t)
                    )
            if picked and t in nset:
                if not fmap.get(t):
                    failures.append(
                        "excluded edge %s from %s lands on %s, which needs a nonempty exclusion set"
                        % (b.name, u, t)
                    )
                elif t in g.infinite_emitters:
                    notes.append(_NOTE % (b.name, t))
    for u in g.vertices:
        if u in nset or u not in g.regular_vertices:
            continue
        if all(b.terminus in nset and not fmap.get(b.terminus) for b in g.out_bundles(u)):
            failures.append(
                "vertex %s sees only members with empty exclusions and must join the family" % u
            )
    return CheckResult(not failures, tuple(failures), tuple(notes))


def _check_h_r(g: Graph, inv: Invariant) -> CheckResult | None:
    """The verdict on an admissible family in its (H, R) form (see the
    module docstring), None for any other: R must be distinct emitters,
    and F_r as many instances as r's finite bundles leaving H have, each
    of one of them.  The notes are those bundles landing in R."""
    nset = inv.vertices
    h = nset.difference(r for r, _ in inv.exclusions) if inv.exclusions else nset
    succ = g._successors.__getitem__
    if (
        len(h) + len(inv.exclusions) != len(nset)
        or not h <= g._vertex_set
        or not all(map(h.issuperset, map(succ, h)))
        or any(map(h.issuperset, map(succ, g.regular_vertices - h)))
    ):
        return None
    notes = []
    for r, fr in sorted(inv.exclusions):  # in the full check's order
        out = g._out.get(r, ())
        leaving = [b for b in out if b.terminus not in h]
        # an equal bundle of another graph passes, as in the full check
        if (
            r not in g.infinite_emitters
            or not leaving
            or any(is_omega(b.multiplicity) for b in leaving)
            or len(fr) != sum(b.multiplicity for b in leaving)
            or any(e.bundle.terminus in h or e.bundle not in out for e in fr)
        ):
            return None
        notes += [_NOTE % (b.name, b.terminus) for b in leaving if b.terminus in nset]
    return CheckResult(True, (), tuple(notes)) if notes else _ADMISSIBLE


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
    """Every hereditary saturated vertex set, each once, O(V) per set.

    Call a generator a sink, an infinite emitter or a cyclic component.
    A closed set H is the vertices reaching no generator outside it: from
    a vertex outside H a walk can stay outside (H is saturated) until it
    ends at a sink or emitter or closes a cycle, whose component lies
    outside H (H is hereditary).  So H's generators S are closed under
    "reaches" and fix H; conversely each such S gives the closed set of
    the vertices whose reach mask lies in S, as masks shrink along edges
    and a regular vertex's mask is the union of its successors'.
    Generators are decided in sccs order, so all that one reaches is
    decided before it, and every branch of the walk ends in a closed set.
    """
    gens, reach = g.generator_reach
    order = sorted(range(len(gens)), key=gens.__getitem__)
    stack = [(0, 0)]
    while stack:
        k, chosen = stack.pop()
        if k == len(order):
            yield frozenset(
                v for i, comp in enumerate(g.sccs) if not reach[i] & ~chosen for v in comp
            )
            continue
        stack.append((k + 1, chosen))
        j = order[k]
        if reach[gens[j]] & ~chosen == 1 << j:
            stack.append((k + 1, chosen | 1 << j))


MAX_FAMILIES = 10**4
"""The most families enumerate_invariants lists; the tests need 4096, the
lattice benchmark 256, and the corpus and the transcript 18."""


def enumerate_invariants(g: Graph) -> Enumeration:
    """All admissible families, smallest first.

    One family per closed set H and subset R of its breaking vertices
    B(H) (see the module docstring), built straight from (H, R) with its
    sort key: each is admissible by construction, so none is checked.
    A finite bundle from one breaking vertex of H to another carries a
    note in every family whose R holds both ends, so the notes are read
    off B(H).  Past MAX_FAMILIES families it raises CapError, counting
    each closed set's 2^|B(H)| families before it builds them.

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
        # (vertex, forced exclusions, their part of Invariant.sort_key)
        breaking = []
        for u in emitters:
            bundles = g._out[u]
            if u in h or any(is_omega(b.multiplicity) and b.terminus not in h for b in bundles):
                continue
            # all of u's omega bundles land in h, so these are finite
            excl = frozenset(e for b in bundles if b.terminus not in h for e in b.instances())
            if excl:
                breaking.append((u, excl, (u, tuple(sorted(e.sort_key() for e in excl)))))
        if len(found) + (1 << len(breaking)) > MAX_FAMILIES:
            raise CapError("more than %d families" % MAX_FAMILIES)
        b_h = {u for u, _, _ in breaking}
        for u in b_h:
            notes.update(_NOTE % (b.name, b.terminus) for b in g._out[u] if b.terminus in b_h)
        hs = tuple(sorted(h))
        for k in range(len(breaking) + 1):
            for picks in itertools.combinations(breaking, k):
                if picks:  # the key is Invariant.sort_key's, from the parts
                    rs = tuple(u for u, _, _ in picks)
                    inv = Invariant(h.union(rs), tuple((u, es) for u, es, _ in picks))
                    key = (len(inv.vertices), tuple(sorted(hs + rs)), tuple(x for _, _, x in picks))
                else:
                    inv, key = Invariant(h, ()), (len(h), hs, ())
                found.append((key, inv))
    found.sort(key=itemgetter(0))
    return Enumeration(tuple(inv for _, inv in found), tuple(sorted(notes)))


def hasse_edges(invariants) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with element i directly below element j.

    Any list will do, duplicates included, and no graph is needed.  For
    the element a at i, up[i] is the bitmask of the elements b with
    invariant_leq(a, b) and a != b, read off bit columns over the list:
    has[v] holds the elements with vertex v, drops[u][e] those excluding
    edge e at u, and same[a] the elements equal to a.  invariant_leq(a, b)
    asks two things.  N(a) <= N(b) holds iff b is in has[v] for every v in
    N(a).  F_b(u) <= F_a(u) at every u in N(a) fails iff b excludes some e
    at such a u with e not in F_a(u), that is iff b is in one of those
    drops[u][e]; every edge that b excludes has a column, so none is
    missed.  So up[i] is the meet of has[v] over N(a), less same[a] and
    those drops: O(V + X) big-int operations per element for X excluded
    edges, where comparing every pair would take n^2 calls.  The covers of
    i are what up[i] holds beyond the union of up[m] over its members m.
    A member already in the union is skipped: the order is transitive, so
    its up[m] is in the union too.
    """
    invs = list(invariants)
    has: dict[str, int] = {}
    drops: dict[str, dict[EdgeInstance, int]] = {}
    same: dict[Invariant, int] = {}
    for j, b in enumerate(invs):
        bit = 1 << j
        same[b] = same.get(b, 0) | bit
        for v in b.vertices:
            has[v] = has.get(v, 0) | bit
        for u, es in b.exclusions:
            at = drops.setdefault(u, {})
            for e in es:
                at[e] = at.get(e, 0) | bit
    everything = (1 << len(invs)) - 1
    up = []
    for a in invs:
        above = everything
        blocked = same[a]
        excluded = dict(a.exclusions)
        for u in a.vertices:
            above &= has[u]
        for u in a.vertices.intersection(drops):  # the members with drop columns
            fa = excluded.get(u, ())
            for e, column in drops[u].items():
                if e not in fa:
                    blocked |= column
        up.append(above & ~blocked)
    edges = []
    for i, above in enumerate(up):
        higher = 0
        rest = above
        while rest:
            low = rest & -rest
            higher |= up[low.bit_length() - 1]
            rest ^= low
            rest &= ~higher  # up[m] of an m in higher is already in it
        covers = above & ~higher
        while covers:
            low = covers & -covers
            edges.append((i, low.bit_length() - 1))
            covers ^= low
    return edges


def _universe(tree, depth: int):
    # the family calculus lives on the directed part of the fiber: cones
    # at vertices reached against the direction are not translation stable
    if isinstance(tree, FiberTree):
        return tree.directed_to_depth(depth)
    check_depth(depth)
    return tree.vertices


def open_set_of(tree, inv: Invariant, depth: int = 4) -> RingSet:
    """The union of the cones V(p; F at endpoint) over member vertices.

    Over a fiber the union runs over all walks up to the given depth,
    shortest first, so RingSet.union_of keeps each cone that no shorter
    kept cone holds, in one pass; a finite tree's vertices take the
    running union.
    """
    walks = _universe(tree, depth)
    blocks = (BasicSet(p, inv.f(u)) for p in walks if (u := tree.endpoint(p)) in inv.vertices)
    return RingSet.union_of(tree, blocks)


def _named_omega_indices(edges, named: dict) -> dict[EdgeBundle, int]:
    """named, or a copy raised to the highest index of each omega bundle
    among the edges."""
    mx = named
    for e in edges:
        if is_omega(e.bundle.multiplicity) and e.index > mx.get(e.bundle, -1):
            if mx is named:
                mx = dict(named)
            mx[e.bundle] = e.index
    return mx


def tree_invariant_of(w: RingSet, depth: int = 4) -> dict:
    """Scan the tree for apexes whose cone boundary the set swallows.

    Returns {vertex: minimal exclusion set}.  A vertex whose full cone
    is swallowed joins with no exclusions, as each child's cone is then
    swallowed too; no other finite-valence vertex joins.  At an
    infinite-valence vertex the exclusion candidates are the finitely
    many indices the set itself names; one fresh index probes all the
    rest at once, since unnamed siblings are interchangeable.  One
    swallow_test of the set answers every walk and child: over a fiber
    whose blocks sit at directed walks it walks down over the set's apex
    words and keeps the answers for full cones; otherwise each question
    makes pieces.
    """
    tree = w.tree
    universe = dict.fromkeys([*_universe(tree, depth), *(b.apex for b in w.blocks)])
    swallows = swallow_test(w)
    emitters = tree.graph.infinite_emitters
    in_w = None  # the omega indices that w names, once an emitter asks
    fam = {}
    for p in universe:
        if swallows(p):  # so is every child: F is empty
            fam[p] = frozenset()
            continue
        v = tree.endpoint(p)
        if v not in emitters:
            continue
        if in_w is None:
            edges = (e for b in w.blocks for e in (*(s.edge for s in tree.word(b.apex)), *b.excluded))
            in_w = _named_omega_indices(edges, {})
        named = _named_omega_indices((s.edge for s in tree.word(p)), in_w)
        bundles = tree.graph.out_bundles(v)
        omegas = [b for b in bundles if is_omega(b.multiplicity)]
        if not all(swallows(tree.child(p, b.instance(named.get(b, -1) + 1))) for b in omegas):
            continue
        # an omega bundle's candidates are its named indices, a finite one's all
        candidates = [e for b in bundles for e in b.instances(named.get(b, -1) + 1)]
        fmin = frozenset(e for e in candidates if not swallows(tree.child(p, e)))
        if swallows(p, fmin):
            fam[p] = fmin
    return fam


def family_open_set(tree, fam: dict) -> RingSet:
    """The union of the cones of a scanned family, smallest walks first:
    over a fiber, RingSet.union_of's one pass when every walk is directed."""
    order = sorted(fam, key=tree.vkey)
    return RingSet.union_of(tree, (BasicSet(p, fam[p]) for p in order))


@dataclass(frozen=True)
class QuotientData:
    """What is left of a graph after collapsing a family.

    Kept vertices are the outsiders plus the excluding members; all
    positive edges between kept vertices survive.  Marks collect the
    excluding members and the outsiders of finite positive valence in
    the original graph.
    """

    graph: Graph
    s_marks: frozenset[str]


def quotient_data(g: Graph, inv: Invariant) -> QuotientData:
    """The quotient data of a family, which must be admissible.  Then each
    mark is a regular vertex of the residue: each r in R keeps a finite
    bundle leaving H and no omega bundle outside H, and each regular vertex
    outside H has an edge leaving H, as H is saturated."""
    res = is_invariant(g, inv)
    if not res.ok:
        raise InvariantError("not an admissible family: %s" % (res.failures[0],))
    rset = inv.r_vertices
    h = inv.vertices - rset
    bundles = [b for b in g.bundles if b.origin not in h and b.terminus not in h]
    kept = [v for v in g.vertices if v not in h]
    marks = rset | (g.regular_vertices - h)
    return QuotientData(Graph.restricted(kept, bundles, (g.name or "graph") + ".quotient"), marks)


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
        if sub.has_vertex(v) and set(sub.out_bundles(v)) == set(sup.out_bundles(v))
    )

"""Directed trees presented through one small interface.

Two implementations back the set calculus: explicit finite trees (a parsed
graph whose undirected shape is a tree, all multiplicities 1) and the fiber
over a base vertex of a graph's path covering, whose vertices are all
reduced walks starting at the base.  Fibers are typically infinite, so the
interface never asks for global enumeration; everything is driven by
out-edge inspection, child steps, and the root words of vertices.

Each tree supplies only ``check_vertex``, ``child``, ``vkey`` and

* ``word(v)``: the reduced word of signed edges from the root to v, and
  ``letter_keys(v)``, the sort keys of its letters, kept per vertex,
* ``endpoint(v)``: the graph vertex under v; v's out-edges are its
  ``graph.out_bundles``, enumerated by ``graph.out_instances``,
* ``along(v, n)``: the vertex n letters along v's root word.

The rest is written once in ``Tree``.  Two root words part at their longest
common prefix, and the unique walk between their vertices is the reversed
tail of the first followed by the tail of the second (Serre, *Trees*).
``relation(u, v)`` reads off that split alone whether the cones at u and v
are equal, nested, meet or are apart, in one pass of O(depth) letter
comparisons (letters that differ differ in their sort keys) and with no
step list.  It is the one prefix scan: where the walk itself is needed,
as in ringsets.basic_diff, it is read off the two root words and the
prefix length relation returns.

A fiber keeps what its queries share: ``directed_to_depth`` sorts its
walks once per (depth, omega cap) and hands the same tuple to every later
call, whose letters come from each instance's cached pair of signed edges.
It refuses a depth below 0 and an omega cap below 1 with TreeError, as
check_depth does for any tree.

Tree edges are identified by the underlying edge instance, anchored at the
vertex they leave; all excluded-edge bookkeeping in the calculus compares
instances at a fixed anchor, which keeps that identification sound.
"""

from __future__ import annotations

from .graphs import EdgeInstance, Graph, GraphError, SignedEdge, is_omega
from .paths import Path, directed_upto


class TreeError(GraphError):
    pass


def check_depth(depth: int) -> None:
    if depth < 0:
        raise TreeError("depth must be at least 0, got %d" % depth)


class Tree:
    """Walks, out-edges and boundary tests from root words and endpoints."""

    graph: Graph

    def validate_out_edge(self, v, e: EdgeInstance):
        if e.bundle not in self.graph.out_bundles(self.endpoint(v)):
            raise TreeError("edge %s does not leave the end of %s" % (e, v))

    def relation(self, u, v):
        """(kind, first, last, k, low) for vertices u and v.

        k is the length of the common prefix of the root words.  The walk
        from u to v climbs u's word back to k, a forward step for each
        reversed letter, then follows v's word; first and last are the
        edges of its first and last step.  kind is "equal", "below" (all
        steps forward: v in V(u)), "above" (all backward), "meet" (forward,
        then backward) or "apart" (disjoint cones), and low is the apex of
        V(u) & V(v), or None when apart.  One pass over the letters past the
        prefix returns "apart" at the first forward step after a backward one.
        """
        a, b = self.word(u), self.word(v)
        k, la, lb = 0, len(a), len(b)
        while k < la and k < lb and (a[k] is b[k] or a[k] == b[k]):
            k += 1
        if k == la == lb:
            return ("equal", None, None, k, u)
        first = a[-1].edge if la > k else b[k].edge
        last = b[-1].edge if lb > k else a[k].edge
        # the walk steps forward climbing the reversed letters at the end of
        # a[k:], down to i, then if i == k along b's forward letters, up to j
        i, j = la, k
        while i > k and not a[i - 1].forward:
            i -= 1
        while i == k and j < lb and b[j].forward:
            j += 1
        # apart at a later forward step: a reversed letter in a[k:i-1], a forward one in b[j:]
        for m in range(k, i - 1):
            if not a[m].forward:
                return ("apart", first, last, k, None)
        for m in range(j, lb):
            if b[m].forward:
                return ("apart", first, last, k, None)
        if i == k and j == lb:
            return ("below", first, last, k, v)
        if i == la and j == k:
            return ("above", first, last, k, u)
        return ("meet", first, last, k, self.along(u, i) if j == k else self.along(v, j))

    def is_boundary_vertex(self, v) -> bool:
        return self.endpoint(v) not in self.graph.regular_vertices

    def touches_boundary(self, apex, excluded=frozenset()) -> bool:
        """Does the cone at apex (minus excluded first steps) meet the boundary?

        It does when the apex is a boundary vertex, or when some first step
        is left: a forward walk in a finite graph either stops at a sink or
        goes on forever, so every cone holds a boundary point.  The excluded
        instances all leave the apex, so counting them finds a step left.
        """
        for e in excluded:
            self.validate_out_edge(apex, e)
        return self.is_boundary_vertex(apex) or len(excluded) < sum(
            b.multiplicity for b in self.graph.out_bundles(self.endpoint(apex))
        )


class FiniteTree(Tree):
    """An explicit finite directed tree over a parsed graph, rooted at its
    first vertex."""

    def __init__(self, graph: Graph):
        self.graph = graph
        for b in graph.bundles:
            if is_omega(b.multiplicity) or b.multiplicity != 1:
                raise TreeError("tree edges cannot carry multiplicities: %s" % b)
        if len(graph.bundles) != len(graph.vertices) - 1:
            raise TreeError("edge count does not match a tree")
        # connectivity by a search from the root, recording root words
        root = graph.vertices[0]
        words: dict[str, tuple[SignedEdge, ...]] = {root: ()}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            steps = [b.instance(0).signed[True] for b in graph.out_bundles(v)]
            steps += [b.instance(0).signed[False] for b in graph.in_bundles(v)]
            for s in steps:
                if s.terminus not in words:
                    words[s.terminus] = words[v] + (s,)
                    frontier.append(s.terminus)
        if len(words) != len(graph.vertices):
            raise TreeError("tree is not connected")
        self._words = words
        self._keys = {v: tuple(s.sort_key() for s in w) for v, w in words.items()}

    def __eq__(self, other):
        return isinstance(other, FiniteTree) and other.graph is self.graph

    def __hash__(self):
        return hash(("finite", id(self.graph)))

    def __repr__(self):
        return "<tree %s>" % (self.graph.name or "%d vertices" % len(self.graph.vertices))

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    def check_vertex(self, v: str) -> str:
        return self.graph.check_vertex(v)

    def word(self, v: str) -> tuple[SignedEdge, ...]:
        return self._words[v]

    def letter_keys(self, v: str) -> tuple:
        return self._keys[v]

    def endpoint(self, v: str) -> str:
        return self.graph.check_vertex(v)

    def child(self, v: str, e: EdgeInstance) -> str:
        self.validate_out_edge(v, e)
        return e.terminus

    def along(self, v: str, n: int) -> str:
        """The vertex n letters along v's root word."""
        return self._words[v][n - 1].terminus if n else self.graph.vertices[0]

    def vkey(self, v: str):
        return v


class FiberTree(Tree):
    """The tree of all reduced walks of a graph starting at one base vertex.

    Vertices are Path objects with the base as origin, rooted at the unit;
    the positive tree edges from a walk p are the forward extensions
    p -> p.append(e) over the positive graph edges leaving p's endpoint (an
    appended edge may cancel, so a child may be a shorter walk).
    """

    def __init__(self, graph: Graph, base: str):
        self.graph = graph
        self.base = graph.check_vertex(base)
        self._directed: dict[tuple[int, int], tuple[Path, ...]] = {}

    def __eq__(self, other):
        return (
            isinstance(other, FiberTree)
            and other.graph is self.graph
            and other.base == self.base
        )

    def __hash__(self):
        return hash(("fiber", id(self.graph), self.base))

    def __repr__(self):
        return "<fiber of %s at %s>" % (self.graph.name or "graph", self.base)

    @property
    def unit(self) -> Path:
        return Path.unit(self.base)

    def check_vertex(self, p: Path) -> Path:
        if p.origin != self.base:
            raise TreeError("walk %s does not start at %s" % (p, self.base))
        return p

    def word(self, p: Path) -> tuple[SignedEdge, ...]:
        return p.word

    def endpoint(self, p: Path) -> str:
        return p.terminus

    def child(self, p: Path, e: EdgeInstance) -> Path:
        return p.append(e)

    def along(self, p: Path, n: int) -> Path:
        return p.prefix(n)

    def letter_keys(self, p: Path) -> tuple:
        return p.letter_keys

    def vkey(self, p: Path):
        return p.sort_key()

    def directed_to_depth(self, depth: int, omega_cap: int = 3) -> tuple[Path, ...]:
        """The fiber vertices under the unit: directed paths up to depth,
        sorted, built once per (depth, omega_cap)."""
        key = (depth, omega_cap)
        out = self._directed.get(key)
        if out is None:
            check_depth(depth)
            if omega_cap < 1:
                raise TreeError("omega cap must be at least 1, got %d" % omega_cap)
            walks = directed_upto(
                [self.unit], lambda v: self.graph.out_instances(v, omega_cap), depth
            )
            out = self._directed[key] = tuple(sorted(walks, key=self.vkey))
        return out

"""Directed trees presented through one small interface.

Two implementations back the set calculus: explicit finite trees (a parsed
graph whose undirected shape is a tree, all multiplicities 1) and the fiber
over a base vertex of a graph's path covering, whose vertices are all
reduced walks starting at the base.  Fibers are typically infinite, so the
interface never asks for global enumeration; everything is driven by
out-edge inspection, child steps, and the unique walk between two vertices.

Each tree supplies only ``check_vertex``, ``child``, ``vkey`` and

* ``word(v)``: the reduced word of signed edges from the root to v,
* ``endpoint(v)``: the graph vertex under v, whose out-edges are v's.

The rest is written once in ``Tree``.  Two root words part at their longest
common prefix, and the unique walk between their vertices is the reversed
tail of the first followed by the tail of the second (Serre, *Trees*).

Tree edges are identified by the underlying edge instance, anchored at the
vertex they leave; all excluded-edge bookkeeping in the calculus compares
instances at a fixed anchor, which keeps that identification sound.
"""

from __future__ import annotations

from .graphs import Delta1, EdgeInstance, Graph, GraphError, SignedEdge, is_omega
from .paths import Path

Step = tuple[EdgeInstance, bool]  # instance plus direction of traversal


class TreeError(GraphError):
    pass


class Tree:
    """Walks, out-edges and boundary tests from root words and endpoints."""

    graph: Graph

    def out_edges(self, v) -> Delta1:
        return self.graph.delta1(self.endpoint(v))

    def validate_out_edge(self, v, e: EdgeInstance):
        if e not in self.out_edges(v):
            raise TreeError("edge %s does not leave the end of %s" % (e, v))

    def walk(self, u, v) -> tuple[Step, ...]:
        """The unique reduced walk from u to v, as anchored steps."""
        a = self.word(self.check_vertex(u))
        b = self.word(self.check_vertex(v))
        k = 0
        while k < len(a) and k < len(b) and a[k] == b[k]:
            k += 1
        up = tuple((s.edge, not s.forward) for s in reversed(a[k:]))
        return up + tuple((s.edge, s.forward) for s in b[k:])

    def ekey(self, e: EdgeInstance):
        return e.sort_key()

    def is_sink(self, v) -> bool:
        return self.out_edges(v).is_empty

    def is_infinite_vertex(self, v) -> bool:
        return self.out_edges(v).infinite

    def in_sigma(self, v) -> bool:
        return not self.is_boundary_vertex(v)

    def is_boundary_vertex(self, v) -> bool:
        d = self.out_edges(v)
        return d.is_empty or d.infinite

    def touches_boundary(self, apex, excluded=frozenset()) -> bool:
        """Does the cone at apex (minus excluded first steps) meet the boundary?

        It does when the apex is a boundary vertex, or when some first step
        is left: a forward walk in a finite graph either stops at a sink or
        goes on forever, so every cone holds a boundary point.  The excluded
        instances all leave the apex, so counting them finds a step left.
        """
        for e in excluded:
            self.validate_out_edge(apex, e)
        return self.is_boundary_vertex(apex) or len(excluded) < self.out_edges(apex).count


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
            steps = [SignedEdge(b.instance(0)) for b in graph.delta1(v).bundles]
            steps += [SignedEdge(b.instance(0), False) for b in graph.in_bundles(v)]
            for s in steps:
                if s.terminus not in words:
                    words[s.terminus] = words[v] + (s,)
                    frontier.append(s.terminus)
        if len(words) != len(graph.vertices):
            raise TreeError("tree is not connected")
        self._words = words

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

    def endpoint(self, v: str) -> str:
        return v

    def child(self, v: str, e: EdgeInstance) -> str:
        self.validate_out_edge(v, e)
        return e.terminus

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

    def vkey(self, p: Path):
        return p.sort_key()

    def vertices_to_depth(self, depth: int, omega_cap: int = 3) -> list[Path]:
        """All fiber vertices of word length <= depth, omega bundles truncated."""
        out = [self.unit]
        frontier = [self.unit]
        for _ in range(depth):
            nxt = []
            for p in frontier:
                for s in self._signed_extensions(p, omega_cap):
                    if p.word and s == p.word[-1].reverse():
                        continue
                    q = Path(p.origin, p.word + (s,))
                    nxt.append(q)
            out.extend(nxt)
            frontier = nxt
        out.sort(key=self.vkey)
        return out

    def directed_to_depth(self, depth: int, omega_cap: int = 3) -> list[Path]:
        """The fiber vertices under the unit: directed paths up to depth."""
        out = [self.unit]
        frontier = [self.unit]
        for _ in range(depth):
            nxt = []
            for p in frontier:
                for e in self.out_edges(p).iter_instances(omega_cap):
                    nxt.append(self.child(p, e))
            out.extend(nxt)
            frontier = nxt
        out.sort(key=self.vkey)
        return out

    def _signed_extensions(self, p: Path, omega_cap: int):
        at = p.terminus
        for b in self.graph.delta1(at).bundles:
            cap = omega_cap if is_omega(b.multiplicity) else None
            for e in b.instances(cap):
                yield SignedEdge(e)
        for b in self.graph.in_bundles(at):
            cap = omega_cap if is_omega(b.multiplicity) else None
            for e in b.instances(cap):
                yield SignedEdge(e, forward=False)

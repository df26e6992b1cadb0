"""Directed trees presented through one small interface.

Two implementations back the set calculus: explicit finite trees (a parsed
graph whose undirected shape is a tree, all multiplicities 1) and the fiber
over a base vertex of a graph's path covering, whose vertices are all
reduced walks starting at the base.  Fibers are typically infinite, so the
interface never asks for global enumeration; everything is driven by
out-edge inspection, child steps, and the unique walk between two vertices.

Tree edges are identified by the underlying edge instance, anchored at the
vertex they leave; all excluded-edge bookkeeping in the calculus compares
instances at a fixed anchor, which keeps that identification sound.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import Delta1, EdgeInstance, Graph, GraphError, is_omega
from .paths import Path

Step = tuple[EdgeInstance, bool]  # instance plus direction of traversal


class TreeError(GraphError):
    pass


class FiniteTree:
    """An explicit finite directed tree over a parsed graph."""

    def __init__(self, graph: Graph):
        self.graph = graph
        for b in graph.bundles:
            if is_omega(b.multiplicity) or b.multiplicity != 1:
                raise TreeError("tree edges cannot carry multiplicities: %s" % b)
        if len(graph.bundles) != len(graph.vertices) - 1:
            raise TreeError("edge count does not match a tree")
        # undirected adjacency, then connectivity
        adj: dict[str, list[tuple[str, EdgeInstance, bool]]] = {
            v: [] for v in graph.vertices
        }
        for b in graph.bundles:
            e = b.instance(0)
            adj[b.origin].append((b.terminus, e, True))
            adj[b.terminus].append((b.origin, e, False))
        self._adj = adj
        root = graph.vertices[0]
        seen = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w, _, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != len(graph.vertices):
            raise TreeError("tree is not connected")

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

    def out_edges(self, v: str) -> Delta1:
        return self.graph.delta1(v)

    def child(self, v: str, e: EdgeInstance) -> str:
        if e.origin != v:
            raise TreeError("edge %s does not leave %s" % (e, v))
        return e.terminus

    def validate_out_edge(self, v: str, e: EdgeInstance):
        if e.origin != v:
            raise TreeError("edge %s does not leave %s" % (e, v))

    def walk(self, u: str, v: str) -> tuple[Step, ...]:
        """The unique reduced walk from u to v, as anchored steps."""
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            return ()
        prev: dict[str, tuple[str, EdgeInstance, bool]] = {u: None}  # type: ignore[dict-item]
        frontier = [u]
        while frontier and v not in prev:
            nxt = []
            for x in frontier:
                for w, e, fwd in self._adj[x]:
                    if w not in prev:
                        prev[w] = (x, e, fwd)
                        nxt.append(w)
            frontier = nxt
        steps = []
        at = v
        while at != u:
            x, e, fwd = prev[at]
            steps.append((e, fwd))
            at = x
        steps.reverse()
        return tuple(steps)

    def vkey(self, v: str):
        return v

    def ekey(self, e: EdgeInstance):
        return e.sort_key()

    def is_sink(self, v: str) -> bool:
        return self.out_edges(v).is_empty

    def is_infinite_vertex(self, v: str) -> bool:
        return False

    def in_sigma(self, v: str) -> bool:
        return not self.is_sink(v)

    def is_boundary_vertex(self, v: str) -> bool:
        return self.is_sink(v)

    def cone_vertices(self, apex: str, excluded=frozenset()) -> list[str]:
        """Vertices reachable from apex by forward steps, first steps filtered."""
        for e in excluded:
            self.validate_out_edge(apex, e)
        out = [apex]
        frontier = [
            e.terminus for e in self.out_edges(apex).finite_instances() if e not in excluded
        ]
        while frontier:
            v = frontier.pop()
            out.append(v)
            frontier.extend(e.terminus for e in self.out_edges(v).finite_instances())
        return out

    def touches_boundary(self, apex: str, excluded=frozenset()) -> bool:
        """Does the cone at apex (minus excluded first steps) meet the boundary?

        In a finite tree the boundary consists of the sinks, so this asks
        whether the cone contains one.
        """
        return any(self.is_sink(v) for v in self.cone_vertices(apex, excluded))


class FiberTree:
    """The tree of all reduced walks of a graph starting at one base vertex.

    Vertices are Path objects with the base as origin; the positive tree
    edges from a walk p are the forward extensions p -> p.append(e) over the
    positive graph edges leaving p's endpoint (an appended edge may cancel,
    so a child may be a shorter walk).
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

    def out_edges(self, p: Path) -> Delta1:
        return self.graph.delta1(p.terminus)

    def child(self, p: Path, e: EdgeInstance) -> Path:
        return p.append(e)

    def validate_out_edge(self, p: Path, e: EdgeInstance):
        if e.origin != p.terminus:
            raise TreeError("edge %s does not leave the end of %s" % (e, p))

    def walk(self, u: Path, v: Path) -> tuple[Step, ...]:
        self.check_vertex(u)
        self.check_vertex(v)
        return tuple((s.edge, s.forward) for s in (u.inverse() * v).word)

    def vkey(self, p: Path):
        return p.sort_key()

    def ekey(self, e: EdgeInstance):
        return e.sort_key()

    def is_sink(self, p: Path) -> bool:
        return self.out_edges(p).is_empty

    def is_infinite_vertex(self, p: Path) -> bool:
        return self.out_edges(p).infinite

    def in_sigma(self, p: Path) -> bool:
        d = self.out_edges(p)
        return not d.is_empty and not d.infinite

    def is_boundary_vertex(self, p: Path) -> bool:
        d = self.out_edges(p)
        return d.is_empty or d.infinite

    def touches_boundary(self, apex: Path, excluded=frozenset()) -> bool:
        """Does the cone at apex (minus excluded first steps) meet the boundary?

        The cone meets the boundary exactly when the apex endpoint is itself
        a sink or infinite emitter, or a sink, infinite emitter, or cycle
        vertex is reachable through an allowed first step (a cycle gives
        infinite forward walks through the cone).
        """
        g = self.graph
        end = apex.terminus
        skipped: dict = {}
        for e in excluded:
            self.validate_out_edge(apex, e)
            skipped[e.bundle] = skipped.get(e.bundle, 0) + 1
        if end in g.sinks or end in g.infinite_emitters:
            return True
        beyond: set[str] = set()
        for b in g.delta1(end).bundles:
            if is_omega(b.multiplicity) or skipped.get(b, 0) < b.multiplicity:
                beyond |= g.reachable(b.terminus)
        bad = g.sinks | g.infinite_emitters | vertices_on_cycles(g)
        return bool(beyond & bad)

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
        from .graphs import SignedEdge

        at = p.terminus
        for b in self.graph.delta1(at).bundles:
            cap = omega_cap if is_omega(b.multiplicity) else None
            for e in b.instances(cap):
                yield SignedEdge(e)
        for b in self.graph.in_bundles(at):
            cap = omega_cap if is_omega(b.multiplicity) else None
            for e in b.instances(cap):
                yield SignedEdge(e, forward=False)


def vertices_on_cycles(g: Graph) -> frozenset[str]:
    """Vertices lying on at least one directed cycle."""
    return g.cycle_vertices

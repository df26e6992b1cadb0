"""Finite directed graphs with doubled edges and bundled multiplicities.

A graph is a finite vertex set plus named edge bundles.  A bundle
``e : u -> v * k`` stands for ``k`` parallel positive edges from ``u`` to
``v``; ``k`` may be ``omega`` (countably many).  The individual edges are
the instances ``e#0, e#1, ...`` and each instance also has a formal
reversal, so walks may traverse edges against their orientation.

Vertex classes used throughout the package:

* sinks: no outgoing positive edge,
* regular vertices: finitely many outgoing positive edges, at least one,
* infinite emitters: at least one omega bundle going out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class _Omega:
    """Countable-infinity marker used as a bundle multiplicity."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self) -> str:
        return "omega"

    def __hash__(self) -> int:
        return 0x0E6A  # not the address, so set orders repeat from run to run

    def __reduce__(self):
        return (_Omega, ())


OMEGA = _Omega()


def is_omega(m) -> bool:
    return m is OMEGA


class GraphError(ValueError):
    """Structurally invalid graph data or lookups."""


class GraphSyntaxError(GraphError):
    """Unparseable graph text; carries a 1-based line number."""

    def __init__(self, msg: str, line: int | None = None):
        if line is not None:
            msg = "line %d: %s" % (line, msg)
        super().__init__(msg)
        self.line = line


class CapError(GraphError):
    """An enumeration needed a cap it was not given, or passed one."""


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class EdgeBundle:
    name: str
    origin: str
    terminus: str
    multiplicity: object = 1  # positive int or OMEGA

    def __post_init__(self):
        m = self.multiplicity
        if not is_omega(m) and not (isinstance(m, int) and m >= 1):
            raise GraphError("multiplicity of %r must be a positive int or omega" % self.name)

    def instance(self, index: int = 0) -> "EdgeInstance":
        return EdgeInstance(self, index)

    def instances(self, omega_cap: int | None = None) -> Iterator["EdgeInstance"]:
        """Yield the instances; omega bundles are cut off at omega_cap."""
        m = self.multiplicity
        if is_omega(m):
            if omega_cap is None:
                raise CapError("cannot enumerate an omega bundle without a cap")
            m = omega_cap
        for i in range(m):
            yield EdgeInstance(self, i)

    def __str__(self) -> str:
        tail = "" if self.multiplicity == 1 else " * %r" % (self.multiplicity,)
        return "%s : %s -> %s%s" % (self.name, self.origin, self.terminus, tail)


@dataclass(frozen=True)
class EdgeInstance:
    bundle: EdgeBundle
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise GraphError("negative edge index")
        m = self.bundle.multiplicity
        if not is_omega(m) and self.index >= m:
            raise GraphError(
                "index %d out of range for bundle %s (multiplicity %r)"
                % (self.index, self.bundle.name, m)
            )

    @property
    def origin(self) -> str:
        return self.bundle.origin

    @property
    def terminus(self) -> str:
        return self.bundle.terminus

    def sort_key(self):
        return (self.bundle.name, self.index)

    def __str__(self) -> str:
        if self.bundle.multiplicity == 1:
            return self.bundle.name
        return "%s#%d" % (self.bundle.name, self.index)

    __repr__ = __str__


@dataclass(frozen=True)
class SignedEdge:
    """An edge instance together with a traversal direction."""

    edge: EdgeInstance
    forward: bool = True

    @property
    def origin(self) -> str:
        return self.edge.origin if self.forward else self.edge.terminus

    @property
    def terminus(self) -> str:
        return self.edge.terminus if self.forward else self.edge.origin

    def reverse(self) -> "SignedEdge":
        return SignedEdge(self.edge, not self.forward)

    def sort_key(self):
        return (*self.edge.sort_key(), not self.forward)

    def __str__(self) -> str:
        return str(self.edge) if self.forward else "~" + str(self.edge)

    __repr__ = __str__


@dataclass(frozen=True)
class Delta1:
    """The outgoing positive edges of one vertex."""

    bundles: tuple[EdgeBundle, ...]

    @cached_property
    def infinite(self) -> bool:
        return any(is_omega(b.multiplicity) for b in self.bundles)

    @property
    def count(self):
        if self.infinite:
            return OMEGA
        return sum(b.multiplicity for b in self.bundles)

    @property
    def is_empty(self) -> bool:
        return not self.bundles

    def finite_instances(self) -> tuple[EdgeInstance, ...]:
        if self.infinite:
            raise GraphError("vertex emits infinitely many edges")
        return tuple(e for b in self.bundles for e in b.instances())

    def iter_instances(self, omega_cap: int | None = None) -> Iterator[EdgeInstance]:
        for b in self.bundles:
            yield from b.instances(omega_cap if is_omega(b.multiplicity) else None)

    def __contains__(self, e: EdgeInstance) -> bool:
        return e.bundle in self.bundles


class Graph:
    """Immutable directed graph over named vertices and edge bundles."""

    def __init__(self, vertices: Iterable[str], bundles: Iterable[EdgeBundle], name: str = ""):
        self.name = name
        self.vertices = tuple(vertices)
        self.bundles = tuple(bundles)
        seen: set[str] = set()
        for v in self.vertices:
            if not _NAME.match(v):
                raise GraphError("bad vertex name %r" % v)
            if v in seen:
                raise GraphError("duplicate name %r" % v)
            seen.add(v)
        self._vertex_set = frozenset(self.vertices)
        self._by_name: dict[str, EdgeBundle] = {}
        for b in self.bundles:
            if not _NAME.match(b.name):
                raise GraphError("bad edge name %r" % b.name)
            if b.name in seen:
                raise GraphError("duplicate name %r" % b.name)
            seen.add(b.name)
            if b.origin not in self._vertex_set:
                raise GraphError("edge %s leaves undeclared vertex %r" % (b.name, b.origin))
            if b.terminus not in self._vertex_set:
                raise GraphError("edge %s enters undeclared vertex %r" % (b.name, b.terminus))
            self._by_name[b.name] = b
        out: dict[str, list[EdgeBundle]] = {v: [] for v in self.vertices}
        inc: dict[str, list[EdgeBundle]] = {v: [] for v in self.vertices}
        for b in self.bundles:
            out[b.origin].append(b)
            inc[b.terminus].append(b)
        self._out = {v: tuple(bs) for v, bs in out.items()}
        self._in = {v: tuple(bs) for v, bs in inc.items()}

    def __repr__(self) -> str:
        label = self.name or "graph"
        return "<%s: %d vertices, %d bundles>" % (label, len(self.vertices), len(self.bundles))

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def check_vertex(self, v: str) -> str:
        if v not in self._vertex_set:
            raise GraphError("unknown vertex %r" % v)
        return v

    def bundle(self, name: str) -> EdgeBundle:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError("unknown edge %r" % name) from None

    def instance(self, text: str) -> EdgeInstance:
        """Parse ``e`` (index 0) or ``e#3`` into an edge instance."""
        name, _, idx = text.partition("#")
        b = self.bundle(name)
        try:
            index = int(idx) if idx else 0
        except ValueError:
            raise GraphError("bad edge index %r" % idx) from None
        return b.instance(index)

    def delta1(self, v: str) -> Delta1:
        self.check_vertex(v)
        return self._delta1s[v]

    @cached_property
    def _delta1s(self) -> dict[str, Delta1]:
        # built on first use: quotient_data makes a graph per family and
        # never asks it for out-edges
        return {v: Delta1(bs) for v, bs in self._out.items()}

    def in_bundles(self, v: str) -> tuple[EdgeBundle, ...]:
        self.check_vertex(v)
        return self._in[v]

    @cached_property
    def sinks(self) -> frozenset[str]:
        return frozenset(v for v in self.vertices if not self._out[v])

    @cached_property
    def infinite_emitters(self) -> frozenset[str]:
        return frozenset(
            v for v in self.vertices if any(is_omega(b.multiplicity) for b in self._out[v])
        )

    @cached_property
    def regular_vertices(self) -> frozenset[str]:
        """Vertices with finitely many, at least one, outgoing edges."""
        return self._vertex_set - self.sinks - self.infinite_emitters

    def reachable(self, v: str, skip_first: Iterable[EdgeInstance] = ()) -> frozenset[str]:
        """Vertices reachable from v by directed paths, v included.

        skip_first removes specific first-step instances; a first step along
        a bundle survives as long as at least one instance is not skipped.
        """
        self.check_vertex(v)
        skipped: dict[EdgeBundle, int] = {}
        for e in skip_first:
            if e.origin != v:
                raise GraphError("skip_first instance %s does not leave %s" % (e, v))
            skipped[e.bundle] = skipped.get(e.bundle, 0) + 1
        frontier = []
        for b in self._out[v]:
            if is_omega(b.multiplicity) or skipped.get(b, 0) < b.multiplicity:
                frontier.append(b.terminus)
        seen = {v}
        while frontier:
            w = frontier.pop()
            if w in seen:
                continue
            seen.add(w)
            frontier.extend(b.terminus for b in self._out[w])
        return frozenset(seen)

    # Derived facts, computed once per graph.  Everything below rests on one
    # iterative Tarjan pass, so it runs in O(V+E) with no recursion.

    @cached_property
    def sccs(self) -> tuple[frozenset[str], ...]:
        """Strongly connected components in reverse topological order."""
        out = self._out
        return tuple(tarjan(self.vertices, lambda v: [b.terminus for b in out[v]]))

    @cached_property
    def scc_index(self) -> dict[str, int]:
        """Vertex -> position of its component in sccs."""
        return {v: i for i, comp in enumerate(self.sccs) for v in comp}

    @cached_property
    def cyclic_sccs(self) -> dict[int, str]:
        """Component index -> the kind shared by every cycle inside it.

        A component is bare when each of its vertices has exactly one
        out-instance inside it (an omega bundle counts as two), so it is a
        single cycle.  A bare component without an exit holds a terminal
        cycle and one with an exit a transitory cycle: an exit leaves the
        component and so never comes back.  Every cycle of any other cyclic
        component has an exit that returns to it.
        """
        kinds: dict[int, str] = {}
        for i, comp in enumerate(self.sccs):
            bare = True
            exits = False
            cyclic = len(comp) > 1
            for v in comp:
                inside = 0
                for b in self._out[v]:
                    if b.terminus in comp:
                        inside += 2 if is_omega(b.multiplicity) else b.multiplicity
                        cyclic = True
                    else:
                        exits = True
                bare = bare and inside == 1
            if not cyclic:
                continue
            if not bare:
                kinds[i] = "returning"
            else:
                kinds[i] = "transitory" if exits else "terminal"
        return kinds

    @cached_property
    def cycle_vertices(self) -> frozenset[str]:
        """Vertices lying on at least one directed cycle."""
        return frozenset(v for i in self.cyclic_sccs for v in self.sccs[i])

    @cached_property
    def paths_into(self) -> dict[str, object]:
        """Vertex -> number of directed paths ending there, OMEGA if infinite.

        Infinite exactly on the vertices reachable from a cycle vertex or
        from the terminus of an omega bundle; the other vertices are acyclic
        singleton components, counted by n(v) = 1 + sum mult * n(origin) in
        topological order.
        """
        table: dict[str, object] = {}
        frontier = list(self.cycle_vertices)
        frontier.extend(b.terminus for b in self.bundles if is_omega(b.multiplicity))
        while frontier:
            w = frontier.pop()
            if w not in table:
                table[w] = OMEGA
                frontier.extend(b.terminus for b in self._out[w])
        for comp in reversed(self.sccs):
            for v in comp:
                if v not in table:
                    table[v] = 1 + sum(b.multiplicity * table[b.origin] for b in self._in[v])
        return table


def tarjan(vertices: Iterable[str], succ) -> list[frozenset[str]]:
    """Strongly connected components, reverse topological order.

    Iterative Tarjan: roots are taken in the order of vertices and the
    successors of v in the order succ(v) lists them.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    onstack: set[str] = set()
    stack: list[str] = []
    out: list[frozenset[str]] = []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    out.append(frozenset(comp))
    return out


def subgraph_le(sub: Graph, sup: Graph) -> bool:
    """Instance-wise inclusion: every vertex and edge of sub occurs in sup."""
    if not set(sub.vertices) <= set(sup.vertices):
        return False
    for b in sub.bundles:
        try:
            big = sup.bundle(b.name)
        except GraphError:
            return False
        if (big.origin, big.terminus) != (b.origin, b.terminus):
            return False
        if is_omega(b.multiplicity):
            if not is_omega(big.multiplicity):
                return False
        elif not is_omega(big.multiplicity) and b.multiplicity > big.multiplicity:
            return False
    return True


_EDGE_STMT = re.compile(
    r"edge\s+(?P<name>\S+)\s*:\s*(?P<orig>\S+)\s*->\s*(?P<term>\S+)"
    r"(?:\s*\*\s*(?P<mult>\S+))?\Z"
)
_VERTEX_STMT = re.compile(r"vertex\s+(?P<name>\S+)\Z")


def parse_graph(text: str, name: str = "") -> Graph:
    """Parse the line-oriented graph format.

    Statements are separated by newlines or semicolons; ``#`` starts a
    comment.  ``vertex u`` declares a vertex, ``edge e : u -> v`` an edge
    bundle, with an optional multiplicity ``* 3`` or ``* omega``.
    """
    vertices: list[str] = []
    bundles: list[EdgeBundle] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            m = _VERTEX_STMT.match(stmt)
            if m:
                vertices.append(m.group("name"))
                continue
            m = _EDGE_STMT.match(stmt)
            if m:
                mult_text = m.group("mult")
                if mult_text is None:
                    mult: object = 1
                elif mult_text == "omega":
                    mult = OMEGA
                else:
                    try:
                        mult = int(mult_text)
                    except ValueError:
                        raise GraphSyntaxError(
                            "bad multiplicity %r" % mult_text, lineno
                        ) from None
                try:
                    bundles.append(
                        EdgeBundle(m.group("name"), m.group("orig"), m.group("term"), mult)
                    )
                except GraphError as exc:
                    raise GraphSyntaxError(str(exc), lineno) from None
                continue
            raise GraphSyntaxError("cannot parse statement %r" % stmt, lineno)
    try:
        return Graph(vertices, bundles, name=name)
    except GraphSyntaxError:
        raise
    except GraphError as exc:
        raise GraphSyntaxError(str(exc)) from exc


def load_graph(path: str, name: str = "") -> Graph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_graph(text, name=name)

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

A bundle owns its instances (``EdgeBundle.instance``), so each edge
instance, and each of its two letters (``EdgeInstance.signed``), is one
object.  Bundles and instances keep their hash, the dataclass formula,
after first use; a letter stores its sort key, hash and ends.  A hash
depends on PYTHONHASHSEED, so each pickles as the call that rebuilds it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Iterable, Iterator


class _cached:
    """functools.cached_property without the lock Python 3.11 takes on every
    first read: the value goes into the instance dict and shadows this."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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


# The errors that the command line maps to exit codes live here, so that
# catching them loads no other module; each home module imports its own.


class PathError(GraphError):
    """A walk that does not compose or reduce (graphck.paths)."""


class PointError(GraphError):
    """A boundary point that cannot be read or used (graphck.points)."""


class SetExprError(GraphError):
    """A cone-set expression that does not parse (graphck.setexpr)."""


class FockError(GraphError):
    """A path basis that cannot be built (graphck.fock)."""


class InvariantError(GraphError):
    """An inadmissible vertex family (graphck.invariants)."""


MAX_INSTANCES = 10**4
"""The most instances EdgeBundle.indices lists for a finite bundle; the
corpus, the tests and the benchmark use multiplicities up to 3."""

MAX_NUMERAL_DIGITS = 100
"""The most digits of a multiplicity or an instance index; int() takes 4,300."""


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

    @classmethod
    def trusted(cls, name: str, origin: str, terminus: str, multiplicity) -> "EdgeBundle":
        """A bundle of multiplicity 1 or OMEGA, skipping the check in
        __post_init__."""
        b = object.__new__(cls)
        b.__dict__.update(name=name, origin=origin, terminus=terminus, multiplicity=multiplicity)
        return b

    def __hash__(self) -> int:  # the dataclass formula, kept after first use
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.origin, self.terminus, self.multiplicity))
            self.__dict__["_hash"] = h
        return h

    def __reduce__(self):  # through the constructor: a hash is kept per process
        return (EdgeBundle, (self.name, self.origin, self.terminus, self.multiplicity))

    def instance(self, index: int = 0) -> "EdgeInstance":
        """This bundle's one instance at index, built on first use and kept
        outside the dataclass fields; a bad index raises and is not kept."""
        made = self.__dict__.setdefault("_made", {})
        e = made.get(index)
        if e is None:
            e = made[index] = EdgeInstance(self, index)
        return e

    def indices(self, omega_cap: int | None = None) -> range:
        """The instance indices; omega bundles are cut off at omega_cap, and
        a cap or a finite multiplicity past MAX_INSTANCES raises CapError."""
        m = self.multiplicity
        if is_omega(m):
            if omega_cap is None:
                raise CapError("cannot enumerate an omega bundle without a cap")
            if omega_cap > MAX_INSTANCES:
                raise CapError("omega cap %d is more than %d" % (omega_cap, MAX_INSTANCES))
            return range(omega_cap)
        if m > MAX_INSTANCES:
            raise CapError("bundle %s has %d instances, more than %d" % (self.name, m, MAX_INSTANCES))
        return range(m)

    def instances(self, omega_cap: int | None = None) -> Iterator["EdgeInstance"]:
        """The instances at indices(omega_cap), which raises on the call."""
        return map(self.instance, self.indices(omega_cap))

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

    def __hash__(self) -> int:  # the dataclass formula, kept after first use
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.bundle, self.index))
        return h

    def __reduce__(self):  # the bundle's one instance, with a fresh hash
        return (EdgeBundle.instance, (self.bundle, self.index))

    @_cached
    def signed(self) -> tuple["SignedEdge", "SignedEdge"]:
        """The backward and the forward letter of this instance, built once:
        ``signed[forward]``.  Equal letters of one instance are then one
        object, which makes comparing words mostly identity checks."""
        return (SignedEdge(self, False), SignedEdge(self, True))

    def __str__(self) -> str:
        if self.bundle.multiplicity == 1:
            return self.bundle.name
        return "%s#%d" % (self.bundle.name, self.index)

    __repr__ = __str__


@dataclass(frozen=True)
class SignedEdge:
    """An edge instance together with a traversal direction; built once per
    instance (``EdgeInstance.signed``), it keeps its sort key, its hash and
    the vertices it leaves and enters, ``origin`` and ``terminus``.  Equality
    is on ``(edge, forward)``, tested by identity, then sort key, then edge,
    so the letters of a second parse or of a pickle are equal to the first."""

    edge: EdgeInstance
    forward: bool = True

    def __post_init__(self):
        e, b, ahead = self.edge, self.edge.bundle, self.forward
        ends = (b.origin, b.terminus) if ahead else (b.terminus, b.origin)
        self.__dict__.update(_key=(b.name, e.index, not ahead), _hash=hash((e, ahead)))
        self.__dict__["origin"], self.__dict__["terminus"] = ends

    def reverse(self) -> "SignedEdge":
        return self.edge.signed[not self.forward]

    def sort_key(self):
        return self._key

    def __eq__(self, other) -> bool:
        if other.__class__ is not SignedEdge:
            return NotImplemented
        return self is other or self._key == other._key and self.edge == other.edge

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # the instance's own letter, with a fresh hash
        return (_letter, (self.edge, self.forward))

    def __str__(self) -> str:
        return str(self.edge) if self.forward else "~" + str(self.edge)

    __repr__ = __str__


def _letter(edge: EdgeInstance, forward: bool) -> SignedEdge:
    return edge.signed[forward]


class Graph:
    """Immutable directed graph over named vertices and edge bundles."""

    def __init__(self, vertices: Iterable[str], bundles: Iterable[EdgeBundle], name: str = ""):
        vertices, bundles = tuple(vertices), tuple(bundles)
        seen: set[str] = set()
        for v in vertices:
            if not (isinstance(v, str) and v.isascii() and v.isidentifier()):
                raise GraphError("bad vertex name %r" % v)
            if v in seen:
                raise GraphError("duplicate name %r" % v)
            seen.add(v)
        declared = frozenset(vertices)
        for b in bundles:
            if not (isinstance(b.name, str) and b.name.isascii() and b.name.isidentifier()):
                raise GraphError("bad edge name %r" % b.name)
            if b.name in seen:
                raise GraphError("duplicate name %r" % b.name)
            seen.add(b.name)
            if b.origin not in declared:
                raise GraphError("edge %s leaves undeclared vertex %r" % (b.name, b.origin))
            if b.terminus not in declared:
                raise GraphError("edge %s enters undeclared vertex %r" % (b.name, b.terminus))
        self._index(vertices, bundles, name)

    @classmethod
    def restricted(cls, vertices: Iterable[str], bundles: Iterable[EdgeBundle], name: str) -> "Graph":
        """A graph on some vertices of a valid graph and bundles of it between
        them, valid by construction, skipping the checks in __init__."""
        g = object.__new__(cls)
        g._index(tuple(vertices), tuple(bundles), name)
        return g

    def _index(self, vertices: tuple[str, ...], bundles: tuple[EdgeBundle, ...], name: str):
        self.name = name
        self.vertices = vertices
        self.bundles = bundles
        self._vertex_set = frozenset(vertices)
        self._out_instances: dict = {}  # (v, omega_cap) -> out_instances(v, omega_cap)

    def _grouped(self, end) -> dict[str, tuple[EdgeBundle, ...]]:
        """Vertex -> its bundles at the given end, in order.  The indexes are
        built on first use: a graph asked only for vertex classes builds none."""
        groups: dict[str, list[EdgeBundle]] = {v: [] for v in self.vertices}
        for b in self.bundles:
            groups[end(b)].append(b)
        return {v: tuple(bs) for v, bs in groups.items()}

    @_cached
    def _out(self) -> dict[str, tuple[EdgeBundle, ...]]:
        return self._grouped(attrgetter("origin"))

    @_cached
    def _in(self) -> dict[str, tuple[EdgeBundle, ...]]:
        return self._grouped(attrgetter("terminus"))

    @_cached
    def _successors(self) -> dict[str, frozenset[str]]:
        return {v: frozenset(b.terminus for b in bs) for v, bs in self._out.items()}

    @_cached
    def _by_name(self) -> dict[str, EdgeBundle]:
        return {b.name: b for b in self.bundles}

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
        """Parse ``e`` (index 0) or ``e#3``, ASCII digits only, and ask the
        bundle: each spelling (``a``, ``a#0``, ``a#00``) is its one object."""
        name, hash_sign, idx = text.partition("#")
        b = self.bundle(name)
        if hash_sign and not (idx.isascii() and idx.isdigit() and len(idx) <= MAX_NUMERAL_DIGITS):
            raise GraphError("bad edge index %r" % idx)
        return b.instance(int(idx) if idx else 0)

    def out_bundles(self, v: str) -> tuple[EdgeBundle, ...]:
        self.check_vertex(v)
        return self._out[v]

    def out_instances(self, v: str, omega_cap: int | None = None) -> tuple[EdgeInstance, ...]:
        """The edge instances leaving v, bundle by bundle, kept per v and cap;
        an omega bundle is cut off at omega_cap, and raises CapError without one."""
        got = self._out_instances
        if (v, omega_cap) not in got:
            got[v, omega_cap] = tuple(e for b in self.out_bundles(v) for e in b.instances(omega_cap))
        return got[v, omega_cap]

    def in_bundles(self, v: str) -> tuple[EdgeBundle, ...]:
        self.check_vertex(v)
        return self._in[v]

    @_cached
    def sinks(self) -> frozenset[str]:
        origins = {b.origin for b in self.bundles}
        return frozenset(v for v in self.vertices if v not in origins)

    @_cached
    def infinite_emitters(self) -> frozenset[str]:
        return frozenset(b.origin for b in self.bundles if is_omega(b.multiplicity))

    @_cached
    def regular_vertices(self) -> frozenset[str]:
        """Vertices with finitely many, at least one, outgoing edges."""
        return self._vertex_set - self.sinks - self.infinite_emitters

    @_cached
    def _walks(self) -> dict:
        """Stripped text -> the walk it names, filled in by paths.parse_path."""
        return {}

    # Derived facts, computed once per graph.  Everything below rests on one
    # iterative Tarjan pass, so it runs in O(V+E) with no recursion.

    @_cached
    def sccs(self) -> tuple[frozenset[str], ...]:
        """Strongly connected components in reverse topological order."""
        out = self._out
        return tuple(tarjan(self.vertices, lambda v: [b.terminus for b in out[v]]))

    @_cached
    def scc_index(self) -> dict[str, int]:
        """Vertex -> position of its component in sccs."""
        return {v: i for i, comp in enumerate(self.sccs) for v in comp}

    @_cached
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

    @_cached
    def cycle_vertices(self) -> frozenset[str]:
        """Vertices lying on at least one directed cycle."""
        return frozenset(v for i in self.cyclic_sccs for v in self.sccs[i])

    @_cached
    def generator_reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(generators, reach): the generator components and, per component,
        the bitmask of the generators it reaches, its own bit included.

        A generator is a cyclic component, or that of a sink or of an
        infinite emitter on no cycle (one on a cycle is reached exactly
        when its component is).  Bits run over the cyclic components in
        sccs order, then the others in vertices order.
        """
        index, cyclic = self.scc_index, self.cyclic_sccs
        gens = list(cyclic)
        for v in self.vertices:
            if (v in self.sinks or v in self.infinite_emitters) and index[v] not in cyclic:
                gens.append(index[v])
        reach = [0] * len(self.sccs)
        for j, i in enumerate(gens):
            reach[i] = 1 << j
        for i, comp in enumerate(self.sccs):
            for v in comp:
                for b in self._out[v]:
                    reach[i] |= reach[index[b.terminus]]
        return tuple(gens), tuple(reach)

    @_cached
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
                    n = 1
                    for b in self._in[v]:
                        n += b.multiplicity * table[b.origin]
                    table[v] = n
        return table


def tarjan(vertices: Iterable[str], succ) -> list[frozenset[str]]:
    """Strongly connected components, reverse topological order.

    Iterative Tarjan: roots are taken in the order of vertices and the
    successors of v in the order succ(v) lists them.  Each frame of the
    walk holds its vertex's low-link.  A vertex whose component is done
    gets index inf, so the low-link test skips it with no on-stack set,
    and a component leaves the stack as one slice, from its root up.
    """
    index: dict[str, float] = {}
    stack: list[str] = []
    out: list[frozenset[str]] = []
    for root in vertices:
        if root in index:
            continue
        index[root] = n = len(index)
        stack.append(root)
        work = [[root, iter(succ(root)), n]]
        while work:
            frame = work[-1]
            v, it, low = frame
            for w in it:
                if w not in index:
                    frame[2] = low
                    index[w] = n = len(index)
                    stack.append(w)
                    work.append([w, iter(succ(w)), n])
                    break
                if index[w] < low:
                    low = index[w]
            else:
                work.pop()
                if low < index[v]:
                    if low < work[-1][2]:
                        work[-1][2] = low
                    continue
                i = len(stack) - 1
                while stack[i] != v:
                    i -= 1
                comp = stack[i:]
                del stack[i:]
                for w in comp:
                    index[w] = inf
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
            p = stmt.split()
            if not p:
                continue
            # the common statements, read from their whitespace-split fields
            if len(p) == 6 and p[0] == "edge" and p[2] == ":" and p[4] == "->":
                bundles.append(EdgeBundle.trusted(p[1], p[3], p[5], 1))
                continue
            if len(p) == 2 and p[0] == "vertex":
                vertices.append(p[1])
                continue
            stmt = stmt.strip()
            # the keywords differ in their first letter: one pattern can match
            if stmt[0] == "v":
                m = _VERTEX_STMT.match(stmt)
                if m:
                    vertices.append(m[1])
                    continue
            else:
                m = _EDGE_STMT.match(stmt)
                if m:
                    bname, orig, term, mult_text = m.groups()
                    if mult_text is None:
                        bundles.append(EdgeBundle.trusted(bname, orig, term, 1))
                    elif mult_text == "omega":
                        bundles.append(EdgeBundle.trusted(bname, orig, term, OMEGA))
                    else:
                        if len(mult_text) > MAX_NUMERAL_DIGITS or not (
                            mult_text.isascii() and mult_text.isdigit()
                        ):
                            raise GraphSyntaxError("bad multiplicity %r" % mult_text, lineno)
                        try:
                            bundles.append(EdgeBundle(bname, orig, term, int(mult_text)))
                        except GraphError as exc:
                            raise GraphSyntaxError(str(exc), lineno) from None
                    continue
            raise GraphSyntaxError("cannot parse statement %r" % stmt, lineno)
    try:
        return Graph(vertices, bundles, name=name)
    except GraphError as exc:
        raise GraphSyntaxError(str(exc)) from exc


def load_graph(path: str, name: str = "") -> Graph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_graph(text, name=name)

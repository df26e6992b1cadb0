"""Finite path-space representations and their relation checks.

The Hilbert space has one basis vector per directed path; an edge acts by
prepending, a vertex by projecting onto paths starting there.  Keeping
every path gives the Toeplitz-style representation; dropping the paths
that end at a marked regular vertex kills that vertex's vacuum defect and
enforces the summation relation there exactly.

The basis is a first-letter forest, and build_basis is the one way to
build it: each path is stored as its origin, its length, its first edge
and the index of the rest of it (its tail), never as a word.  Every
generator is a 0/1 partial isometry on the basis, so no linear algebra
is needed.  A vertex projection is the set of basis indices starting at
the vertex, and the translation by e the partial injection tail -> path
over the paths whose first edge is e.
Each relation is a domain, range, disjointness or cover identity on
those index sets.  Building the basis and checking the relations cost
O(basis + edges), up to sorting the edges that enter each level, where
whole words would cost O(basis letters).  With cycles or infinite
bundles the basis is truncated by depth and cap, and relations are
checked on interior columns only.  A relation that examined no column at
all is reported as vacuous rather than ok.

On a finite acyclic graph the basis is exact and the span of the
translation pairs S_a S_b* is the direct sum of the matrix algebras
M_n(v) over the unmarked vertices v, n(v) the number of directed paths
into v (Raeburn, Graph Algebras, CBMS 103, 2005, ch. 1; Muhly and
Tomforde, Doc. Math. 9, 2004, for partial marks), so its dimension is
the sum of the n(v)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import CapError, EdgeInstance, FockError, Graph, is_omega


@dataclass(eq=False)
class PathBasis:
    """The chosen family of directed paths with its indexing, stored as a
    first-letter forest of integer arrays; build_basis is its one builder.

    Path i starts at origin[i] and has length[i] letters.  Unless first[i]
    is None it is the edge edges[first[i]] followed by path tail[i]; a
    unit has first[i] and tail[i] None.  edges lists the instances the
    generators act by, omega bundles cut at omega_cap, in bundle order.
    No path is kept as a word.  Bases compare by identity.
    """

    graph: Graph
    mode: str
    marks: frozenset[str]
    depth: int | None
    omega_cap: int
    exact: bool
    edges: tuple[EdgeInstance, ...]
    origin: list[str]
    length: list[int]
    first: list[int | None]
    tail: list[int | None]

    @property
    def size(self) -> int:
        return len(self.origin)

    def interior_columns(self) -> frozenset[int]:
        """Columns far enough from the cut to see every product of two
        generators: all of them when no depth cut the basis (only the
        omega cap did, and the generators are capped alike), else the
        paths shorter than the depth."""
        if self.exact or self.depth is None:
            return frozenset(range(self.size))
        return frozenset(i for i, k in enumerate(self.length) if k < self.depth)


MAX_BASIS = 10**6
"""The most paths build_basis puts in a basis.  The largest basis that the
corpus, the tests and the benchmark build has 80,200 paths: the Toeplitz
basis of a 400-vertex chain."""


def build_basis(
    g: Graph,
    mode: str = "toeplitz",
    marks=None,
    depth: int | None = None,
    omega_cap: int = 3,
) -> PathBasis:
    """Directed paths of the graph, truncated as needed.

    mode "toeplitz" keeps every path; mode "ck" drops paths ending at a
    marked regular vertex (all of them when marks is None), which is what
    enforces the summation relation at the marks.  Marks must be regular
    vertices in either mode.  depth, when given, must be at least 0 and
    omega_cap at least 1.

    The basis is ordered by length, then by the letters' sort keys, then
    by origin.  It is built level by level by prepending: e.q ends where q
    does, so the marks filter runs once, on the units, and every kept
    path's tail is kept.  Within a level that order is "first letter in
    sort-key order, then tail in rank order", so each level comes out
    sorted with no sort, in O(level + the edges entering the level below).
    Before a level is built its size is bounded from the level below, and
    summed exactly when the bound reaches MAX_BASIS; a basis of more than
    MAX_BASIS paths raises CapError.
    """
    if mode not in ("toeplitz", "ck"):
        raise FockError("unknown mode %r" % mode)
    if depth is not None and depth < 0:
        raise FockError("depth must be at least 0, got %d" % depth)
    if omega_cap < 1:
        raise FockError("omega cap must be at least 1, got %d" % omega_cap)
    mset = frozenset(g.regular_vertices if marks is None else marks)
    bad = mset - g.regular_vertices
    if bad:
        raise FockError("marks %s are not regular vertices" % sorted(bad))
    if mode == "toeplitz":
        mset = frozenset()
    has_omega = any(is_omega(b.multiplicity) for b in g.bundles)
    cyclic = bool(g.cycle_vertices)
    if depth is None:
        if cyclic:
            raise FockError("a cyclic graph needs an explicit depth")
        depth_eff = len(g.vertices)
    else:
        depth_eff = depth
    exact = not cyclic and not has_omega and (depth is None or depth >= len(g.vertices) - 1)

    edges = tuple(e for b in g.bundles for e in b.instances(omega_cap))
    # (key, origin, terminus, slot) of each edge in sort-key order, and
    # the ranks in that order of the edges entering each vertex
    ranked = sorted((e.sort_key(), e.origin, e.terminus, k) for k, e in enumerate(edges))
    into: dict[str, list[int]] = {}
    for r, (_, _, v, _) in enumerate(ranked):
        into.setdefault(v, []).append(r)
    # no vertex has more entering edges, so no level is more than this
    # many times the level below it
    fan_in = max(map(len, into.values()), default=0)

    origin = sorted(v for v in g.vertices if v not in mset)
    length = [0] * len(origin)
    first: list[int | None] = [None] * len(origin)
    tail: list[int | None] = [None] * len(origin)
    # the indices of the last level, by origin, in rank order
    starts = {v: [i] for i, v in enumerate(origin)}
    level = len(origin)
    for n in range(1, depth_eff + 1):
        low = len(origin)
        below, starts = starts, {}
        ranks = sorted(r for v in below for r in into.get(v, ()))
        # the exact size, unless the bound already keeps it under the cap
        if (
            low + fan_in * level > MAX_BASIS
            and (size := low + sum(len(below[ranked[r][2]]) for r in ranks)) > MAX_BASIS
        ):
            raise CapError("%d basis paths up to length %d, more than %d" % (size, n, MAX_BASIS))
        for r in ranks:
            _, u, v, k = ranked[r]
            tails = below[v]
            starts.setdefault(u, []).extend(range(len(origin), len(origin) + len(tails)))
            origin += [u] * len(tails)
            first += [k] * len(tails)
            tail += tails
        if len(origin) == low:
            break
        level = len(origin) - low
        length += [n] * level
    return PathBasis(g, mode, mset, depth, omega_cap, exact, edges, origin, length, first, tail)


def generator_matrices(basis: PathBasis):
    """The vertex projections and edge translations on the basis.

    Returns (P, S).  P maps each vertex to the frozenset of indices of the
    basis paths starting there.  S maps each edge instance (omega bundles
    cut at the basis cap) to a dict column -> row: the column of a path p
    goes to the row of e.p, and is absent where e.p falls outside the
    basis.  S[e] is {tail[j]: j for every j whose first edge is e}, read
    off the forest without reading a word, so S[e] is injective and its
    rows start at the origin of e.
    """
    starts: dict[str, list[int]] = {u: [] for u in basis.graph.vertices}
    for i, u in enumerate(basis.origin):
        if u in starts:
            starts[u].append(i)
    rows: list[dict[int, int]] = [{} for _ in basis.edges]
    for j, (k, i) in enumerate(zip(basis.first, basis.tail)):
        if k is not None:
            rows[k][i] = j
    return {u: frozenset(ix) for u, ix in starts.items()}, dict(zip(basis.edges, rows))


@dataclass(frozen=True)
class RelationReport:
    """One relation's verdict; checked counts the columns examined (None
    when not counted), and a relation that examined none is vacuous."""

    name: str
    holds: bool
    witness: str = ""
    checked: int | None = None

    def __str__(self) -> str:
        if self.checked == 0:
            mark = "vacuous"
        else:
            mark = "ok" if self.holds else "FAIL"
        tail = "" if not self.witness else " (%s)" % self.witness
        return "%s: %s%s" % (self.name, mark, tail)


def verify_relations(basis: PathBasis) -> list[RelationReport]:
    """Check the generator relations on the basis as identities on index sets.

    With P and S as in generator_matrices, S_e* S_e is the projection onto
    the domain of S_e and S_e S_e* the one onto its range, which lies under
    P[origin of e].  On the columns checked:

    - the P[u] are pairwise disjoint and together cover every index;
    - the domain of S_e is all of P[terminus of e];
    - no two S_e share a row;
    - no index under P[u] lies in two ranges of edges from u;
    - at a marked u, every index under P[u] lies in exactly one range.

    The projection identities are checked on every column.  On a truncated
    basis the others count only the interior columns: a path one step
    short of the depth still sees every product of two generators.  Each
    path has one origin and one first letter, so the disjointness
    identities cannot fail; truncation and marks can break the domain and
    saturation ones.  Since the disjointness identities cannot fail, no
    witness is searched for them; the witness of the others is the first
    failing edge in bundle order or the first failing vertex.
    """
    g = basis.graph
    P, S = generator_matrices(basis)
    n = basis.size
    interior = basis.interior_columns()
    inner = len(interior)
    reports = []

    # an index in two projections counts twice in the sizes, once in the union
    held = sum(len(ix) for ix in P.values())
    owned = len(frozenset().union(*P.values()))
    reports.append(RelationReport("vertex projections orthogonal", held == owned, "", n))
    reports.append(RelationReport("vertex projections sum to one", held == owned == n, "", n))

    inside = {u: interior & ix for u, ix in P.items()}
    ok, witness = True, ""
    for e, s in S.items():
        if len(interior.intersection(s)) != len(inside[e.terminus]):
            ok, witness = False, str(e)
            break
    reports.append(
        RelationReport(
            "translations are partial isometries onto their target", ok, witness, inner
        )
    )

    hits = [0] * n
    ok = True
    for s in S.values():
        for i, j in s.items():
            if hits[j] and i in interior:
                ok = False
            hits[j] += 1
    reports.append(RelationReport("translations have orthogonal ranges", ok, "", inner))

    def first_breach(vertices, bad, text):
        for u in vertices:
            if any(bad(hits[i]) for i in inside[u]):
                return False, text % u
        return True, ""

    ok, witness = first_breach(g.vertices, lambda k: k > 1, "defect at %s is not a subprojection")
    reports.append(RelationReport("range sums stay under their vertex", ok, witness, inner))
    if basis.marks:
        ok, witness = first_breach(
            sorted(basis.marks), lambda k: k != 1, "marked vertex %s keeps a defect"
        )
        reports.append(RelationReport("marked vertices saturate", ok, witness, inner))
    return reports


def all_hold(reports) -> bool:
    return all(r.holds for r in reports)


def algebra_dimension(basis: PathBasis) -> int:
    """Dimension of the span of the translation pairs S_a S_b* on an exact basis.

    It is the sum of n(v)^2 over the unmarked vertices v, n(v) the number
    of directed paths into v.  S_a S_b*, a and b ending at a common vertex
    t, sends the basis vector b.c to a.c and kills the others.  If t is
    unmarked, b itself is a basis vector, on which this pair acts as the
    matrix unit from b to a while every pair with a longer second path, or
    another one of the same length, vanishes: the pairs are triangular
    against longer pairs, hence independent.  If t is marked, the unit path
    at t is absent, so S_a S_b* = sum of S_ae S_be* over the edges e leaving
    t, and the pair lies in the span of longer ones; on a finite acyclic
    graph that unrolling ends at unmarked termini.
    """
    if not basis.exact:
        raise FockError("dimension needs an exact basis")
    g = basis.graph
    return sum(g.paths_into[v] ** 2 for v in g.vertices if v not in basis.marks)

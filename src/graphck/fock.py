"""Finite path-space representations and their relation checks.

The Hilbert space has one basis vector per directed path; an edge acts by
prepending, a vertex by projecting onto paths starting there.  Keeping
every path gives the Toeplitz-style representation; dropping the paths
that end at a marked regular vertex kills that vertex's vacuum defect and
enforces the summation relation there exactly.

Every generator is a 0/1 partial isometry on the basis, so no linear
algebra is needed.  A vertex projection is the set of basis indices it
keeps and an edge translation a partial injection, column to row.  Each
relation is a domain, range, disjointness or cover identity on those
index sets, read off one table of how many edge ranges hold each index;
the whole check costs O(basis letters + edges).  With cycles or infinite
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

from .graphs import Graph, GraphError, is_omega
from .paths import Path, directed_upto


class FockError(GraphError):
    pass


@dataclass(frozen=True)
class PathBasis:
    """The chosen family of directed paths with its indexing."""

    graph: Graph
    mode: str
    marks: frozenset[str]
    depth: int | None
    omega_cap: int
    paths: tuple[Path, ...]
    exact: bool

    @property
    def size(self) -> int:
        return len(self.paths)

    def index(self) -> dict[Path, int]:
        return {p: i for i, p in enumerate(self.paths)}

    def interior_columns(self) -> frozenset[int]:
        """Columns far enough from the cut to see every product of two
        generators: all of them when no depth cut the basis (only the
        omega cap did, and the generators are capped alike), else the
        paths shorter than the depth."""
        if self.exact or self.depth is None:
            return frozenset(range(self.size))
        return frozenset(i for i, p in enumerate(self.paths) if len(p) < self.depth)


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

    units = [Path.unit(v) for v in g.vertices]
    out = directed_upto(units, lambda v: g.delta1(v).iter_instances(omega_cap), depth_eff)
    if mset:
        out = [p for p in out if p.terminus not in mset]
    out.sort(key=lambda p: p.sort_key())
    return PathBasis(g, mode, mset, depth, omega_cap, tuple(out), exact)


def generator_matrices(basis: PathBasis):
    """The vertex projections and edge translations on the basis.

    Returns (P, S).  P maps each vertex to the frozenset of indices of the
    basis paths starting there.  S maps each edge instance (omega bundles
    cut at the basis cap) to a dict column -> row: the column of a path p
    goes to the row of e.p, and is absent where e.p falls outside the
    basis.  Each row is read off a basis path's first letter, so S[e] is
    injective and its rows start at the origin of e.
    """
    g = basis.graph
    at = {(p.origin, p.word): i for i, p in enumerate(basis.paths)}
    starts: dict[str, list[int]] = {u: [] for u in g.vertices}
    for i, p in enumerate(basis.paths):
        if p.origin in starts:
            starts[p.origin].append(i)
    S: dict = {}
    for b in g.bundles:
        for e in b.instances(basis.omega_cap):
            S[e] = {}
    for (_, word), j in at.items():
        if not word or not word[0].forward:
            continue
        col = at.get((word[0].terminus, word[1:]))
        row = S.get(word[0].edge)
        if col is not None and row is not None:
            row[col] = j
    return {u: frozenset(ix) for u, ix in starts.items()}, S


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

    owners = [0] * n
    for ix in P.values():
        for i in ix:
            owners[i] += 1
    ortho = all(k <= 1 for k in owners)
    reports.append(RelationReport("vertex projections orthogonal", ortho, "", n))
    reports.append(
        RelationReport("vertex projections sum to one", all(k == 1 for k in owners), "", n)
    )

    inner_at = {u: sum(1 for i in ix if i in interior) for u, ix in P.items()}
    ok, witness = True, ""
    for e, s in S.items():
        if sum(1 for i in s if i in interior) != inner_at[e.terminus]:
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
            if any(i in interior and bad(hits[i]) for i in P[u]):
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

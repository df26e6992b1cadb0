"""Finite path-space representations and their relation checks.

The Hilbert space has one basis vector per directed path; an edge acts by
prepending, a vertex by projecting onto paths starting there.  Keeping
every path gives the Toeplitz-style representation; dropping the paths
that end at a marked regular vertex kills that vertex's vacuum defect and
enforces the summation relation there exactly.

With cycles or infinite bundles the basis is truncated by depth and cap,
and relations are checked on interior columns only; on a finite acyclic
graph the basis is exact and linear algebra over the rationals gives the
dimension of the span of the translation operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import EdgeInstance, Graph, GraphError, SignedEdge, is_omega
from .paths import Path


class FockError(GraphError):
    pass


@dataclass(frozen=True)
class SparseOperator:
    """A rational matrix as a {(row, col): value} dict, zeros dropped."""

    size: int
    entries: tuple

    @classmethod
    def of(cls, size: int, items) -> "SparseOperator":
        cleaned = {}
        for (i, j), v in dict(items).items():
            v = Fraction(v)
            if v:
                cleaned[(i, j)] = v
        return cls(size, tuple(sorted(cleaned.items())))

    @classmethod
    def zero(cls, size: int) -> "SparseOperator":
        return cls(size, ())

    @classmethod
    def identity(cls, size: int) -> "SparseOperator":
        return cls.of(size, {(i, i): 1 for i in range(size)})

    def todict(self) -> dict:
        return dict(self.entries)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if self.size != other.size:
            raise FockError("operator sizes differ")
        by_row: dict[int, list] = {}
        for (i, k), v in other.entries:
            by_row.setdefault(i, []).append((k, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, k), v in self.entries:
            for j, w in by_row.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + v * w
        return SparseOperator.of(self.size, out)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        out = dict(self.entries)
        for key, v in other.entries:
            out[key] = out.get(key, Fraction(0)) + v
        return SparseOperator.of(self.size, out)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        out = dict(self.entries)
        for key, v in other.entries:
            out[key] = out.get(key, Fraction(0)) - v
        return SparseOperator.of(self.size, out)

    def adjoint(self) -> "SparseOperator":
        return SparseOperator.of(self.size, {(j, i): v for (i, j), v in self.entries})

    def is_zero(self) -> bool:
        return not self.entries

    def column_support(self) -> frozenset[int]:
        return frozenset(j for (_, j) in dict(self.entries))

    def restrict_columns(self, keep) -> "SparseOperator":
        return SparseOperator.of(
            self.size, {(i, j): v for (i, j), v in self.entries if j in keep}
        )

    def is_diagonal_01(self) -> bool:
        return all(i == j and v in (0, 1) for (i, j), v in self.entries)


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
        if self.exact:
            return frozenset(range(self.size))
        limit = (self.depth or 0) - 1
        return frozenset(i for i, p in enumerate(self.paths) if len(p) <= limit)


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
    enforces the summation relation at the marks.
    """
    if mode not in ("toeplitz", "ck"):
        raise FockError("unknown mode %r" % mode)
    if mode == "toeplitz":
        mset = frozenset()
    else:
        mset = frozenset(g.regular_vertices if marks is None else marks)
        bad = mset - g.regular_vertices
        if bad:
            raise FockError("marks %s are not regular vertices" % sorted(bad))
    has_omega = any(is_omega(b.multiplicity) for b in g.bundles)
    cyclic = bool(g.cycle_vertices)
    if depth is None:
        if cyclic:
            raise FockError("a cyclic graph needs an explicit depth")
        depth_eff = len(g.vertices)
    else:
        depth_eff = depth
    exact = not cyclic and not has_omega and (depth is None or depth >= len(g.vertices) - 1)

    out = []
    frontier = [Path.unit(v) for v in g.vertices]
    out.extend(frontier)
    for _ in range(depth_eff):
        nxt = []
        for p in frontier:
            for b in g.delta1(p.terminus).bundles:
                cap = omega_cap if is_omega(b.multiplicity) else None
                for e in b.instances(cap):
                    nxt.append(p.append(e))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    if mset:
        out = [p for p in out if p.terminus not in mset]
    out.sort(key=lambda p: p.sort_key())
    return PathBasis(g, mode, mset, depth, omega_cap, tuple(out), exact)


def generator_matrices(basis: PathBasis):
    """The vertex projections and edge translations on the basis.

    Returns (P, S): P maps vertex names to diagonal projections onto
    paths starting there, S maps edge instances to the prepend operators,
    truncated where a prepended path falls outside the basis.
    """
    idx = basis.index()
    n = basis.size
    g = basis.graph
    pmat = {}
    for u in g.vertices:
        pmat[u] = SparseOperator.of(
            n, {(i, i): 1 for i, p in enumerate(basis.paths) if p.origin == u}
        )
    smat = {}
    for b in g.bundles:
        cap = basis.omega_cap if is_omega(b.multiplicity) else None
        for e in b.instances(cap):
            entries = {}
            for p, i in idx.items():
                if p.origin != e.terminus:
                    continue
                q = Path(e.origin, (SignedEdge(e),) + p.word)
                j = idx.get(q)
                if j is not None:
                    entries[(j, i)] = 1
            smat[e] = SparseOperator.of(n, entries)
    return pmat, smat


@dataclass(frozen=True)
class RelationReport:
    name: str
    holds: bool
    witness: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.holds else "FAIL"
        tail = "" if not self.witness else " (%s)" % self.witness
        return "%s: %s%s" % (self.name, mark, tail)


def _agree(a: SparseOperator, b: SparseOperator, interior) -> bool:
    return (a - b).restrict_columns(interior).is_zero()


def verify_relations(basis: PathBasis) -> list[RelationReport]:
    """Check the generator relations on the basis, column by column.

    On a truncated basis only the interior columns count: a path one step
    short of the depth still sees every product of two generators.
    """
    g = basis.graph
    pmat, smat = generator_matrices(basis)
    n = basis.size
    interior = basis.interior_columns()
    reports = []

    def report(name, holds, witness=""):
        reports.append(RelationReport(name, holds, witness))

    total = SparseOperator.zero(n)
    ortho = True
    witness = ""
    for u, p in pmat.items():
        total = total + p
        if not (p @ p - p).is_zero() or not (p.adjoint() - p).is_zero():
            ortho = False
            witness = "projection at %s" % u
    for u in g.vertices:
        for v in g.vertices:
            if u < v and not (pmat[u] @ pmat[v]).is_zero():
                ortho = False
                witness = "%s and %s overlap" % (u, v)
    report("vertex projections orthogonal", ortho, witness)
    report(
        "vertex projections sum to one",
        (total - SparseOperator.identity(n)).is_zero(),
    )

    ok = True
    witness = ""
    for e, s in smat.items():
        if not _agree(s.adjoint() @ s, pmat[e.terminus], interior):
            ok = False
            witness = str(e)
            break
    report("translations are partial isometries onto their target", ok, witness)

    ok = True
    witness = ""
    edges = sorted(smat, key=lambda e: e.sort_key())
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if not (smat[e].adjoint() @ smat[f]).restrict_columns(interior).is_zero():
                ok = False
                witness = "%s against %s" % (e, f)
        if not _agree(pmat[e.origin] @ smat[e], smat[e], interior):
            ok = False
            witness = "%s not supported at %s" % (e, e.origin)
    report("translations have orthogonal ranges", ok, witness)

    ok = True
    witness = ""
    for u in g.vertices:
        acc = SparseOperator.zero(n)
        for b in g.delta1(u).bundles:
            cap = basis.omega_cap if is_omega(b.multiplicity) else None
            for e in b.instances(cap):
                acc = acc + smat[e] @ smat[e].adjoint()
        defect = (pmat[u] - acc).restrict_columns(interior)
        if not defect.is_diagonal_01():
            ok = False
            witness = "defect at %s is not a subprojection" % u
            break
    report("range sums stay under their vertex", ok, witness)

    ok = True
    witness = ""
    for u in sorted(basis.marks):
        acc = SparseOperator.zero(n)
        for b in g.delta1(u).bundles:
            for e in b.instances():
                acc = acc + smat[e] @ smat[e].adjoint()
        if not _agree(pmat[u], acc, interior):
            ok = False
            witness = "marked vertex %s keeps a defect" % u
            break
    if basis.marks:
        report("marked vertices saturate", ok, witness)
    return reports


def all_hold(reports) -> bool:
    return all(r.holds for r in reports)


def _pair_operator(basis: PathBasis, idx, alpha: Path, beta: Path) -> SparseOperator:
    entries = {}
    for p, i in idx.items():
        if p.origin != beta.terminus:
            continue
        q_from = Path(beta.origin, beta.word + p.word)
        q_to = Path(alpha.origin, alpha.word + p.word)
        i_from = idx.get(q_from)
        i_to = idx.get(q_to)
        if i_from is not None and i_to is not None:
            entries[(i_to, i_from)] = 1
    return SparseOperator.of(basis.size, entries)


def algebra_dimension(basis: PathBasis) -> int:
    """Rank of the span of the translation pair operators.

    Needs an exact basis; pairs share a terminus, and elimination runs
    over the rationals so the rank is exact.
    """
    if not basis.exact:
        raise FockError("dimension needs an exact basis")
    idx = basis.index()
    by_terminus: dict[str, list[Path]] = {}
    for p in _all_directed_paths(basis.graph):
        by_terminus.setdefault(p.terminus, []).append(p)
    rows = []
    for t, group in sorted(by_terminus.items()):
        for alpha in group:
            for beta in group:
                op = _pair_operator(basis, idx, alpha, beta)
                if not op.is_zero():
                    rows.append(op.todict())
    return _rank(rows)


def _all_directed_paths(g: Graph) -> list[Path]:
    out = [Path.unit(v) for v in g.vertices]
    frontier = list(out)
    while frontier:
        nxt = []
        for p in frontier:
            for b in g.delta1(p.terminus).bundles:
                if is_omega(b.multiplicity):
                    raise FockError("infinite bundle in an exact enumeration")
                for e in b.instances():
                    nxt.append(p.append(e))
        out.extend(nxt)
        frontier = nxt
    return out


def _rank(rows: list[dict]) -> int:
    pivots: dict[tuple[int, int], dict] = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead in pivots:
                basis_row = pivots[lead]
                factor = row[lead] / basis_row[lead]
                for key, v in basis_row.items():
                    row[key] = row.get(key, Fraction(0)) - factor * v
                row = {k: v for k, v in row.items() if v}
            else:
                pivots[lead] = row
                rank += 1
                break
    return rank

"""Arrows over the path covering: standard forms, degree, transversals.

An arrow is a pair (alpha, x) of a reduced walk and a boundary point with
t(alpha) = o(x); it translates x to alpha.x.  Every arrow factors uniquely
as alpha = beta1.beta2^-1 where beta2 is the prefix of x that alpha
cancels, and the degree len(beta1) - len(beta2) is a groupoid cocycle.
The transversal keeps only points whose walk is fully directed; every
point translates into it along the prefix ending at its last reversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeInstance, Graph, is_omega, subgraph_le
from .paths import Path
from .points import AperiodicDescriptor, FinitePath, Lasso, PointError, act
from .ringsets import BasicSet, RingSet
from .trees import FiberTree


@dataclass(frozen=True)
class CoverEdge:
    """One positive tree edge of a fiber, from a walk to a one-step child."""

    source: Path
    target: Path
    edge: EdgeInstance

    def __str__(self) -> str:
        return "%s -[%s]-> %s" % (self.source, self.edge, self.target)


def cover_delta1(fiber: FiberTree, p: Path, omega_cap: int | None = None) -> list[CoverEdge]:
    """The positive tree edges leaving the cover vertex p, as explicit pairs."""
    fiber.check_vertex(p)
    out = []
    for e in fiber.out_edges(p).iter_instances(omega_cap):
        out.append(CoverEdge(p, fiber.child(p, e), e))
    return out


@dataclass(frozen=True)
class StandardForm:
    """alpha = beta1.beta2^-1 against the point x, with y = beta2.x."""

    beta1: Path
    beta2: Path
    x: object

    @property
    def degree(self) -> int:
        return len(self.beta1) - len(self.beta2)

    def alpha(self) -> Path:
        return self.beta1 * self.beta2.inverse()

    def point(self):
        return act(self.beta2, self.x)

    def __str__(self) -> str:
        return "(%s, %s, %s)" % (self.beta1, self.beta2, self.x)


def standard_form(alpha: Path, y) -> StandardForm:
    """Cancel alpha against the front of y's walk as far as it goes.

    The cancellation depth r is maximal with the last r letters of alpha
    inverse to the first r letters of y, so beta1 = alpha without those
    letters, beta2 = that prefix of y, and x = y with the prefix removed.
    """
    if alpha.terminus != y.origin:
        raise PointError(
            "walk %s ends at %s but the point starts at %s"
            % (alpha, alpha.terminus, y.origin)
        )
    k = len(alpha)
    w = y.word_prefix(k)
    r = 0
    while r < k and r < len(w) and alpha.word[k - 1 - r] == w[r].reverse():
        r += 1
    beta1 = alpha.prefix(k - r)
    beta2 = Path(y.origin, w[:r])
    return StandardForm(beta1, beta2, y.drop(r))


def degree(alpha: Path, y) -> int:
    """The cocycle value of the arrow (alpha, y)."""
    return standard_form(alpha, y).degree


def compose_arrows(second, first):
    """(beta, alpha.x) after (alpha, x) is (beta.alpha, x)."""
    beta, z = second
    alpha, x = first
    if act(alpha, x) != z:
        raise PointError("arrows do not compose: %s is not %s.%s" % (z, alpha, x))
    return (beta * alpha, x)


def invert_arrow(arrow):
    alpha, x = arrow
    return (alpha.inverse(), act(alpha, x))


def _check_transversal_marks(g: Graph, s) -> frozenset[str]:
    s = frozenset(s)
    bad = s - g.regular_vertices
    if bad:
        raise PointError("marks %s are not regular vertices" % sorted(bad))
    return s


def point_in_boundary(g: Graph, x, s=()) -> bool:
    """Is x a boundary point once the marked regular vertices are interior?"""
    s = _check_transversal_marks(g, s)
    if x.kind == "finite":
        t = x.terminus
        return t in g.sinks or t in g.infinite_emitters or (t in g.regular_vertices and t not in s)
    return True


def in_transversal(g: Graph, x, s=()) -> bool:
    """Boundary membership plus a fully directed walk."""
    return point_in_boundary(g, x, s) and x.is_directed


def transversal_translate(g: Graph, x, s=()):
    """The unique (alpha, x') with x = alpha.x' and x' in the transversal.

    alpha is the prefix of x's walk through its last reversed letter; for
    a directed point it is the unit at the origin.
    """
    if not point_in_boundary(g, x, s):
        raise PointError("%s is not a boundary point here" % (x,))
    word = x.path.word if x.kind == "finite" else x.stem.word
    k = 0
    for i, letter in enumerate(word):
        if not letter.forward:
            k = i + 1
    alpha = Path(x.origin, word[:k])
    return alpha, x.drop(k)


def end_member(rs: RingSet, x) -> bool:
    """Does the boundary point x lie in the ring set's boundary part?

    A walk's endpoint lies in a block exactly when the walk does: finite
    first-step exclusions never separate an endpoint from its own apex.
    For a ray, membership of its prefix vertices is constant strictly
    below every apex, so one deep enough prefix decides.
    """
    if x.kind == "finite":
        return rs.has_vertex(x.path)
    deepest = max((len(b.apex) for b in rs.blocks), default=0)
    settled = len(x.stem.word if x.kind == "lasso" else x.alpha.word) + deepest + 2
    return rs.has_vertex(x.prefix_path(settled))


def act_on_ringset(alpha: Path, rs: RingSet) -> RingSet:
    """Translate a ring set over the fiber at t(alpha) to the fiber at o(alpha).

    Blocks map apex-wise; excluded edges are anchored at the apex endpoint,
    which translation preserves.
    """
    fiber = rs.tree
    if not isinstance(fiber, FiberTree) or alpha.terminus != fiber.base:
        raise PointError("walk %s does not end at the base of %r" % (alpha, fiber))
    target = FiberTree(fiber.graph, alpha.origin)
    return rs.pushforward(target, lambda p: alpha * p, lambda e: e)


class LiftedInvariant:
    """A vertex family with exclusions, pulled back to every fiber at once.

    Membership of a walk depends only on its endpoint and the excluded
    cover edges below a walk are the excluded graph edges at its endpoint,
    so the lift is stored by delegation.
    """

    def __init__(self, graph: Graph, inv):
        self.graph = graph
        self.inv = inv

    def member(self, p: Path) -> bool:
        return p.terminus in self.inv.vertices

    def f_set(self, p: Path) -> frozenset[EdgeInstance]:
        if not self.member(p):
            raise PointError("walk %s ends outside the family" % (p,))
        return self.inv.f(p.terminus)

    def marked_cover_edges(self, p: Path) -> tuple[CoverEdge, ...]:
        edges = sorted(self.f_set(p), key=lambda e: e.sort_key())
        return tuple(CoverEdge(p, p.append(e), e) for e in edges)


def lift_invariant(graph: Graph, inv) -> LiftedInvariant:
    return LiftedInvariant(graph, inv)


@dataclass(frozen=True)
class ArrowBlock:
    """Two equal-length directed paths with common terminus, plus the
    transversal cone at that terminus."""

    beta1: Path
    beta2: Path
    region: RingSet

    @property
    def terminus(self) -> str:
        return self.beta1.terminus

    @property
    def length(self) -> int:
        return len(self.beta1)

    def __str__(self) -> str:
        return "(%s, %s) at %s" % (self.beta1, self.beta2, self.terminus)


def directed_paths_upto(g: Graph, sub: Graph, n: int, omega_cap: int = 3) -> list[Path]:
    """The directed paths of the marked subgraph of length at most n, omega
    bundles cut off at omega_cap instances.  Instances are taken in g, so
    paths compare across the inclusion."""
    if n < 0:
        raise PointError("length must be at least 0, got %d" % n)
    if omega_cap < 1:
        raise PointError("omega cap must be at least 1, got %d" % omega_cap)
    if not subgraph_le(sub, g):
        raise PointError("marked subgraph is not included in the graph")
    steps: dict[str, list[EdgeInstance]] = {v: [] for v in sub.vertices}
    for b in sub.bundles:
        big = g.bundle(b.name)
        m = b.multiplicity
        cap = omega_cap if is_omega(m) else m
        for i in range(cap):
            steps[b.origin].append(big.instance(i))
    out = [Path.unit(v) for v in sub.vertices]
    frontier = list(out)
    for _ in range(n):
        nxt = []
        for p in frontier:
            for e in steps.get(p.terminus, ()):
                nxt.append(p.append(e))
        out.extend(nxt)
        frontier = nxt
    return out


def af_block_enumerate(
    g: Graph, sub: Graph, n: int, omega_cap: int = 3
) -> list[ArrowBlock]:
    """All ordered pairs of directed paths of the marked subgraph, of equal
    length at most n, sharing a terminus; each pair carries the full cone
    at the terminus as its source region.

    Enlarging the subgraph or the length bound only ever adds pairs.
    """
    groups: dict[tuple[int, str], list[Path]] = {}
    for p in directed_paths_upto(g, sub, n, omega_cap):
        groups.setdefault((len(p), p.terminus), []).append(p)
    blocks = []
    for (_, t), paths in sorted(groups.items()):
        region = RingSet.basic(FiberTree(g, t), Path.unit(t))
        paths.sort(key=lambda p: p.sort_key())
        for b1 in paths:
            for b2 in paths:
                blocks.append(ArrowBlock(b1, b2, region))
    blocks.sort(key=lambda blk: (blk.length, blk.terminus, blk.beta1.sort_key(), blk.beta2.sort_key()))
    return blocks

"""The Boolean ring of cone sets of a directed tree.

For a tree vertex v write V(v) for the set of vertices reachable from v by
forward steps, and V(v; F), with F a finite set of out-edges of v, for the
cone minus the subcones through F.  These basic sets are closed under
intersection, and differences of basic sets split into finitely many
disjoint basic sets, so finite disjoint unions of basic sets form a ring of
sets.  A RingSet is such a disjoint union in a merged, sorted form; two
RingSets are equal exactly when their symmetric difference is empty, which
the operations decide without ever enumerating a cone.

The geometry driving every case split: for apexes u != v the unique walk
from u to v either descends all the way (v inside u's cone), ascends all
the way (u inside v's cone), descends then ascends (the cones overlap in
the cone of the walk's lowest point), or ascends then descends somewhere
(disjoint cones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graphs import EdgeInstance, GraphError
from .paths import PathError
from .trees import TreeError


class RingError(GraphError):
    pass


@dataclass(frozen=True)
class BasicSet:
    """V(apex; excluded): the cone at apex minus first steps along excluded."""

    apex: object
    excluded: frozenset = frozenset()

    def __str__(self) -> str:
        if not self.excluded:
            return "V(%s)" % (self.apex,)
        names = ",".join(sorted(str(e) for e in self.excluded))
        return "V(%s; %s)" % (self.apex, names)

    __repr__ = __str__


def _validate_basic(tree, b: BasicSet) -> None:
    try:
        tree.check_vertex(b.apex)
        for e in sorted(b.excluded, key=tree.ekey):
            tree.validate_out_edge(b.apex, e)
    except (GraphError, TreeError, PathError) as exc:
        raise RingError("bad basic set %s: %s" % (b, exc)) from None


def _classify(tree, u, v):
    """Relative position of two apexes; see the module docstring."""
    steps = tree.walk(u, v)
    if not steps:
        return ("equal", steps)
    drop = 0
    while drop < len(steps) and steps[drop][1]:
        drop += 1
    if drop == len(steps):
        return ("below", steps)  # v in V(u)
    if any(fwd for _, fwd in steps[drop:]):
        return ("apart", steps)  # cones disjoint
    if drop == 0:
        return ("above", steps)  # u in V(v)
    return ("meet", steps, drop)  # cones overlap in the cone of the meet


def _meet_vertex(tree, u, steps, drop):
    at = u
    for e, _ in steps[:drop]:
        at = tree.child(at, e)
    return at


def basic_intersect(tree, b: BasicSet, c: BasicSet) -> BasicSet | None:
    """B cap C as a basic set, or None when empty."""
    if b.apex == c.apex:
        return BasicSet(b.apex, b.excluded | c.excluded)
    tag = _classify(tree, b.apex, c.apex)
    if tag[0] == "apart":
        return None
    if tag[0] == "below":
        return None if tag[1][0][0] in b.excluded else c
    if tag[0] == "above":
        return None if tag[1][-1][0] in c.excluded else b
    _, steps, drop = tag
    if steps[0][0] in b.excluded or steps[-1][0] in c.excluded:
        return None
    return BasicSet(_meet_vertex(tree, b.apex, steps, drop))


def _descend_chain(tree, apex, first_excluded, edges) -> list[BasicSet]:
    # V(apex; first_excluded) minus the cone under the walk `edges`
    out = [BasicSet(apex, frozenset(first_excluded) | {edges[0]})]
    at = tree.child(apex, edges[0])
    for e in edges[1:]:
        out.append(BasicSet(at, frozenset([e])))
        at = tree.child(at, e)
    return out


def basic_diff(tree, b: BasicSet, c: BasicSet) -> list[BasicSet]:
    """B minus C as finitely many disjoint basic sets."""
    if b.apex == c.apex:
        return [
            BasicSet(tree.child(b.apex, e))
            for e in sorted(c.excluded - b.excluded, key=tree.ekey)
        ]
    tag = _classify(tree, b.apex, c.apex)
    if tag[0] == "apart":
        return [b]
    if tag[0] == "below":
        steps = tag[1]
        if steps[0][0] in b.excluded:
            return [b]
        edges = [e for e, _ in steps]
        out = _descend_chain(tree, b.apex, b.excluded, edges)
        out.extend(
            BasicSet(tree.child(c.apex, e)) for e in sorted(c.excluded, key=tree.ekey)
        )
        return out
    if tag[0] == "above":
        return [b] if tag[1][-1][0] in c.excluded else []
    _, steps, drop = tag
    if steps[0][0] in b.excluded or steps[-1][0] in c.excluded:
        return [b]
    edges = [e for e, _ in steps[:drop]]
    return _descend_chain(tree, b.apex, b.excluded, edges)


def basic_contains(tree, b: BasicSet, c: BasicSet) -> bool:
    """Is C a subset of B?"""
    if b.apex == c.apex:
        return c.excluded >= b.excluded
    tag = _classify(tree, b.apex, c.apex)
    return tag[0] == "below" and tag[1][0][0] not in b.excluded


def _canonical(tree, blocks: Iterable[BasicSet]) -> tuple[BasicSet, ...]:
    blocks = list(blocks)
    for b in blocks:
        _validate_basic(tree, b)
    # absorb a full child cone into a sibling block that excludes its edge
    changed = True
    while changed:
        changed = False
        full = {b.apex: i for i, b in enumerate(blocks) if not b.excluded}
        for i, b in enumerate(blocks):
            for e in sorted(b.excluded, key=tree.ekey):
                j = full.get(tree.child(b.apex, e))
                if j is not None and j != i:
                    merged = BasicSet(b.apex, b.excluded - {e})
                    del blocks[max(i, j)]
                    del blocks[min(i, j)]
                    blocks.append(merged)
                    changed = True
                    break
            if changed:
                break
    blocks.sort(key=lambda b: (tree.vkey(b.apex), sorted(map(tree.ekey, b.excluded))))
    for i, b in enumerate(blocks):
        for c in blocks[i + 1 :]:
            if basic_intersect(tree, b, c) is not None:
                raise RingError("blocks %s and %s overlap" % (b, c))
    return tuple(blocks)


@dataclass(frozen=True)
class RingSet:
    """A finite disjoint union of basic sets over one tree."""

    tree: object
    blocks: tuple[BasicSet, ...]

    @classmethod
    def of(cls, tree, blocks: Iterable[BasicSet]) -> "RingSet":
        return cls(tree, _canonical(tree, blocks))

    @classmethod
    def empty(cls, tree) -> "RingSet":
        return cls(tree, ())

    @classmethod
    def basic(cls, tree, apex, excluded: Iterable[EdgeInstance] = ()) -> "RingSet":
        if isinstance(apex, BasicSet):
            if excluded:
                raise RingError("excluded edges belong inside the basic set")
            return cls.of(tree, [apex])
        return cls.of(tree, [BasicSet(apex, frozenset(excluded))])

    def _check_same(self, other: "RingSet"):
        if self.tree != other.tree:
            raise RingError("operands live over different trees")

    def is_empty(self) -> bool:
        return not self.blocks

    def intersect(self, other: "RingSet") -> "RingSet":
        self._check_same(other)
        out = []
        for b in self.blocks:
            for c in other.blocks:
                d = basic_intersect(self.tree, b, c)
                if d is not None:
                    out.append(d)
        return RingSet.of(self.tree, out)

    def minus(self, other: "RingSet") -> "RingSet":
        self._check_same(other)
        parts = list(self.blocks)
        for c in other.blocks:
            parts = [d for b in parts for d in basic_diff(self.tree, b, c)]
        return RingSet.of(self.tree, parts)

    def union(self, other: "RingSet") -> "RingSet":
        self._check_same(other)
        return RingSet.of(self.tree, list(self.blocks) + list(other.minus(self).blocks))

    def symmdiff(self, other: "RingSet") -> "RingSet":
        return self.minus(other).union(other.minus(self))

    def equals(self, other: "RingSet") -> bool:
        self._check_same(other)
        if self.blocks == other.blocks:
            return True
        return self.minus(other).is_empty() and other.minus(self).is_empty()

    def contains(self, other: "RingSet") -> bool:
        """Is other a subset of self?"""
        return other.minus(self).is_empty()

    def has_vertex(self, v) -> bool:
        tree = self.tree
        tree.check_vertex(v)
        for b in self.blocks:
            if b.apex == v:
                return True
            tag = _classify(tree, b.apex, v)
            if tag[0] == "below" and tag[1][0][0] not in b.excluded:
                return True
        return False

    def boundary_is_empty(self) -> bool:
        """Does the set avoid the tree boundary entirely?

        True when no block's cone contains a sink, an infinite-valence
        vertex, or an infinite forward walk.
        """
        return not any(
            self.tree.touches_boundary(b.apex, b.excluded) for b in self.blocks
        )

    def boundary_contains(self, other: "RingSet") -> bool:
        """Does self cover other up to sets that avoid the boundary?"""
        return other.minus(self).boundary_is_empty()

    def boundary_equal(self, other: "RingSet") -> bool:
        return self.boundary_contains(other) and other.boundary_contains(self)

    def kernel_member(self, in_s: Callable[[object], bool]) -> bool:
        """Is this set a finite union of singletons {u} with u in the given

        family of regular vertices?  Such a singleton is the basic set at u
        excluding all of its finitely many out-edges.
        """
        tree = self.tree
        for b in self.blocks:
            if not in_s(b.apex):
                return False
            d = tree.out_edges(b.apex)
            if d.infinite:
                return False
            if set(d.finite_instances()) != set(b.excluded):
                return False
        return True

    def pushforward(
        self,
        target_tree,
        vertex_map: Callable,
        edge_map: Callable,
    ) -> "RingSet":
        """Transport along an injective tree map preserving ends and direction."""
        out = [
            BasicSet(vertex_map(b.apex), frozenset(edge_map(e) for e in b.excluded))
            for b in self.blocks
        ]
        return RingSet.of(target_tree, out)

    def __str__(self) -> str:
        if not self.blocks:
            return "{}"
        return "{%s}" % ", ".join(str(b) for b in self.blocks)

    __repr__ = __str__
